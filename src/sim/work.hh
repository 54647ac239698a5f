/**
 * @file
 * Per-thread work counters of the simulator's inner loops.
 *
 * Plain integers bumped where the work happens, so a run's cost can
 * be stated exactly, without a clock: tests/work_counts.cc reads them
 * around each run. Counts a run already reports (events, Chain
 * transitions) are not repeated here.
 */

#ifndef CAPY_SIM_WORK_HH
#define CAPY_SIM_WORK_HH

#include <cstdint>

namespace capy::sim
{

struct WorkCounts
{
    std::uint64_t crcCalls = 0;      ///< dev::nvCrc32 calls
    /** PowerSystem advance walks; committing runLoad()'s stage
     *  instead of walking is not one. */
    std::uint64_t advanceWalks = 0;
    /** Predictive-query walks and PowerSystem::runLoad() walks. */
    std::uint64_t queryWalks = 0;
    std::uint64_t phases = 0;  ///< phase iterations of every walk
    /** Crossing-time solves (power::timeToEnergy) in the
     *  PowerSystem walker; a phase that clearly misses its level and
     *  stop (power::stepMisses) takes none. */
    std::uint64_t solves = 0;
    /** exp(-dt/tau) evaluations in power::advanceEnergy() that no
     *  power::ExpCache served: memo misses and unmemoized calls. */
    std::uint64_t exps = 0;
    /** env::EventSchedule cursor lookups that fell back to a binary
     *  search (a backward or a long forward jump). */
    std::uint64_t seeks = 0;
    /** Callback events scheduled (EventQueue::schedule(Time,
     *  std::function)); the simulator's own components schedule
     *  owned Events instead. */
    std::uint64_t callbackEvents = 0;
    /** Events run in place (Simulator::claimInPlace) instead of
     *  through the queue; counted in the executed events too. */
    std::uint64_t inPlace = 0;
    /** Pre-task gate calls (rt::Kernel, one per attempt where a gate
     *  is installed); a policy that annotates nothing installs
     *  none. */
    std::uint64_t gates = 0;
};

/** This thread's counters; only ever incremented. */
inline constinit thread_local WorkCounts workCounts;

} // namespace capy::sim

#endif // CAPY_SIM_WORK_HH
