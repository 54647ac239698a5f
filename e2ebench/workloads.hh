/**
 * @file
 * The benchmark's workloads: the run set each one executes through
 * the public apps::run* entry points, the inputs it builds from the
 * seed, and the digest that pins every run's simulated output.
 *
 *  - fig08:   the paper's Fig. 8 matrix, 4 apps x 4 policies.
 *  - capysat: multi-orbit CapySat missions over derived seeds.
 *  - crash:   fault-injected, audited replicas built the way
 *             tools/crash_sweep builds its csr time-point and ckpt
 *             sweeps, against uninterrupted oracle runs.
 */

#ifndef CAPY_E2EBENCH_WORKLOADS_HH
#define CAPY_E2EBENCH_WORKLOADS_HH

#include <algorithm>
#include <cstdint>
#include <deque>
#include <map>
#include <optional>
#include <string>
#include <utility>
#include <vector>

#include "apps/faults.hh"
#include "core/runtime.hh"
#include "env/events.hh"
#include "spans.hh"

namespace e2e
{

/** Which simulated rig a run builds. */
enum class Rig
{
    TempAlarm,
    GestureFast,
    GestureCompact,
    CorrSense,
    CapySat,
    Checkpoint,
};

/** One entry of a run set: exactly one apps entry-point call. */
struct RunSpec
{
    std::string name;  ///< e.g. "ta_capyp", "capysat2", "csr1_t17"
    Rig rig = Rig::TempAlarm;
    capy::core::Policy policy = capy::core::Policy::CapyP;
    /** Event schedule (owned by Inputs); null for CapySat/Checkpoint. */
    const capy::env::EventSchedule *schedule = nullptr;
    std::uint64_t seed = 0;
    /** Simulated length: seconds, or orbits for CapySat. */
    double horizon = 0.0;
    std::optional<capy::apps::FaultSpec> faults;
};

/** Name of the apps entry point a rig's run calls (span names). */
const char *entryPoint(Rig rig);

/** Whether the run's device draws harvested energy (every rig except
 *  the continuous-power fig08 cells). */
bool intermittent(const RunSpec &spec);

/** Exact counts read from one run's simulated output. */
struct RunCounts
{
    std::uint64_t events = 0;
    std::uint64_t transitions = 0;
    std::uint64_t completions = 0;
    std::uint64_t restarts = 0;
    std::uint64_t boots = 0;
    std::uint64_t powerFailures = 0;
    /** Charge-to-boot cycles of intermittent devices. */
    std::uint64_t chargeCycles = 0;
    /** Device workloads (task, sleep, checkpoint slices) started on
     *  intermittent devices. */
    std::uint64_t workloads = 0;
    std::uint64_t tornCommits = 0;
    std::uint64_t tornRecoveries = 0;
    std::uint64_t auditChecks = 0;
    std::uint64_t violations = 0;
    std::uint64_t reconfigurations = 0;
    std::uint64_t rechargePauses = 0;
    std::uint64_t burstRecharges = 0;
    std::uint64_t samples = 0;
    /** Environment lookups on the sample-task path (rig queries). */
    std::uint64_t envQueries = 0;
    /** Seconds the intermittent devices were on (simulated). */
    double timeOn = 0.0;

    RunCounts &operator+=(const RunCounts &o);
};

/** What one run produced. */
struct RunResult
{
    std::uint64_t digest = 0;  ///< over every simulated statistic
    RunCounts counts;
    double fracCorrect = -1.0;  ///< Fig. 8 accuracy; -1 = n/a
    std::string violationText;
};

/** Execute one run (one apps::run* call) and digest its output. */
RunResult execute(const RunSpec &spec);

/** Pinned output digests: (workload, seed) -> group digests. */
using PinTable =
    std::map<std::pair<std::string, std::uint64_t>,
             std::vector<std::uint64_t>>;

/** Parse a pin file; a missing file gives an empty table. */
PinTable loadPins(const std::string &path);

/** Runs are pinned in at most this many contiguous groups. */
inline constexpr std::size_t kPinGroups = 16;

/** Group of run @p i in a run set of @p n runs. */
inline std::size_t
pinGroup(std::size_t i, std::size_t n)
{
    std::size_t groups = std::min(n, kPinGroups);
    return i * groups / n;
}

/** Fold per-run digests into per-group digests. */
std::vector<std::uint64_t>
groupDigests(const std::vector<std::uint64_t> &run_digests);

/** A workload's inputs for one seed. */
struct Inputs
{
    /** Schedules the runs point into (deque: stable addresses). */
    std::deque<capy::env::EventSchedule> schedules;
    std::vector<RunSpec> runs;
    /** Pinned group digests; empty when the seed is not pinned. */
    std::vector<std::uint64_t> pinned;
    /** Host seconds spent in uninterrupted oracle runs. */
    double oracleSeconds = 0.0;
};

/** The workload names, in BENCHMARK.json order. */
const std::vector<std::string> &workloadNames();

/**
 * Build @p workload's inputs for @p seed: event schedules, fault
 * points (running the crash oracles) and the pinned reference
 * digests read from @p pin_path. Spans go to @p trace when non-null.
 * Throws std::runtime_error on an unknown workload or a dirty oracle.
 */
Inputs buildInputs(const std::string &workload, std::uint64_t seed,
                   const std::string &pin_path, SpanRecorder *trace);

} // namespace e2e

#endif // CAPY_E2EBENCH_WORKLOADS_HH
