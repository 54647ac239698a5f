/**
 * @file
 * Per-layer costs measured from outside the simulator. In-program
 * probes do not exist yet, so each layer is timed by replaying calls
 * into its public functions on the workload's own inputs, and the
 * per-call cost is sized by the run's exact counts (RunCounts).
 */

#ifndef CAPY_E2EBENCH_LAYERS_HH
#define CAPY_E2EBENCH_LAYERS_HH

#include <cstdint>
#include <vector>

#include "workloads.hh"

namespace e2e
{

/** sim: Simulator::schedule + runUntil dispatch, ns per event. */
double replayDispatchNs(std::uint64_t events);

/** dev: NvJournaledCell<const rt::Task *> get+set, ns per pair (the
 *  Chain kernel's read and commit of one task transition). */
double replayJournalNs(std::uint64_t pairs);

/** power: per-call costs on one run's board. */
struct PowerCost
{
    double advanceNs = 0.0;  ///< PowerSystem::advanceTo
    /** timeToFull / timeToBrownout / timeToVoltage, pooled. */
    double queryNs = 0.0;
};

/**
 * Drive @p spec's board (apps::makeBoard, the CapySat banks, or the
 * checkpoint rig) through charge/run/brown-out cycles at the run's
 * mean workload length, timing each power-layer call.
 */
PowerCost replayPower(const RunSpec &spec, const RunCounts &counts);

/** Power-layer calls a run made, from its device counts: each device
 *  workload advances twice and queries once, each charge cycle
 *  advances five times and queries twice (dev/device.cc). */
std::uint64_t powerAdvances(const RunCounts &counts);
std::uint64_t powerQueries(const RunCounts &counts);

/** env: host seconds of one run's environment work. */
struct EnvCost
{
    double querySeconds = 0.0;  ///< rig lookups, envQueries of them
    /** Scoreboard::recordSample per sample + sampleIntervals +
     *  summarize. */
    double scoreSeconds = 0.0;
};

/** Replay the run's rig lookups and scoring at its sample count,
 *  samples spread evenly over its horizon. */
EnvCost replayEnv(const RunSpec &spec, const RunCounts &counts);

/**
 * rt: share of faulted-replica time spent in the crash auditor,
 * from paired replicas with FaultSpec::audit on and off. 0 when no
 * run of the set attaches an auditor.
 */
double auditShare(const std::vector<RunSpec> &runs);

/** sim: serial time over sim::BatchRunner time at @p threads for one
 *  pass over @p runs. */
double runnerSpeedup(const std::vector<RunSpec> &runs, unsigned threads);

} // namespace e2e

#endif // CAPY_E2EBENCH_LAYERS_HH
