/**
 * @file
 * Shared experiment driver: per-run metrics, schedule builders with
 * the paper's event counts/horizons (§6.2), and metric collection.
 */

#ifndef CAPY_APPS_EXPERIMENT_HH
#define CAPY_APPS_EXPERIMENT_HH

#include <functional>
#include <map>
#include <string>
#include <utility>
#include <vector>

#include "apps/boards.hh"
#include "apps/faults.hh"
#include "core/runtime.hh"
#include "dev/radio.hh"
#include "env/events.hh"
#include "env/scoring.hh"
#include "rt/kernel.hh"
#include "sim/runner.hh"

namespace capy::apps
{

/**
 * Everything one application run produces. Move-only, because
 * `intervals` owns the run's sample log (MBs on a long run): pass
 * it by reference and move it out of a batch.
 */
struct RunMetrics
{
    core::Policy policy = core::Policy::Fixed;
    env::Scoreboard::Summary summary;
    /** Inter-sample intervals (Fig. 11), computed as walked. */
    env::IntervalView intervals;
    dev::Device::Stats device;
    rt::Kernel::Stats kernel;
    core::Runtime::Stats runtime;
    std::uint64_t packetsSent = 0;
    std::uint64_t packetsLost = 0;
    std::uint64_t samples = 0;
    /** Charging-interval statistics over the run. */
    std::size_t chargeSpans = 0;
    double chargeSpanMean = 0.0;
    double chargeSpanMax = 0.0;
    /** Full charge-discharge cycles per bank (wear levelling, §5.2). */
    std::vector<std::pair<std::string, std::uint64_t>> bankCycles;
    /** Per-task energy attribution (§3 measurement methodology). */
    std::map<std::string, rt::Kernel::TaskEnergyUse> taskEnergy;
    /** Simulator events executed over the run. */
    std::uint64_t simEvents = 0;
    /** Injection/audit outcome (all-zero for unfaulted runs). */
    FaultReport faults;
};

/** TA evaluation horizon: 50 events over 120 minutes (§6.2). */
inline constexpr double kTaHorizon = 120.0 * 60.0;
inline constexpr std::size_t kTaEvents = 50;

/** GRC/CSR horizon: 80 events over 42 minutes (§6.2). */
inline constexpr double kGrcHorizon = 42.0 * 60.0;
inline constexpr std::size_t kGrcEvents = 80;

/**
 * The paper's TA event sequence (50 Poisson events / 120 min).
 *
 * Pure function of @p seed (a private generator per call), so sweep
 * jobs draw their own schedule on the worker thread instead of the
 * caller pre-generating and sharing one — same bytes at any
 * CAPY_JOBS.
 */
env::EventSchedule taSchedule(std::uint64_t seed);

/** The paper's GRC/CSR event sequence (80 Poisson events / 42 min);
 *  pure function of @p seed, like taSchedule(). */
env::EventSchedule grcSchedule(std::uint64_t seed);

/**
 * Fill the bookkeeping shared by all runs (device/kernel/runtime
 * stats, radio counters, scoreboard summary, charge spans). Takes
 * the scoreboard's sample log over for `out.intervals`. Asserts that
 * the power system's energy ledger balances (assertLedgerBalances()).
 */
void collectMetrics(RunMetrics &out, env::Scoreboard &&sb,
                    const dev::Device &device,
                    const rt::Kernel &kernel,
                    const core::Runtime &runtime,
                    const dev::Radio &radio);

/**
 * Assert that @p ps's energy ledger balances at the end of a run:
 * PowerSystem::ledgerResidual() within 1e-6 of the harvest (plus
 * 1e-12 J), so a walker that books a flow wrong aborts the run.
 */
void assertLedgerBalances(const power::PowerSystem &ps);

/** Look up a bank's recorded cycles in @p m; 0 when absent. */
std::uint64_t bankCyclesFor(const RunMetrics &m,
                            const std::string &bank_name);

/** A deferred application run producing its metrics. */
using MetricsJob = std::function<RunMetrics()>;

/**
 * Run independent application sweeps in parallel on the shared sweep
 * pool (sized by CAPY_JOBS / hardware concurrency) and return the
 * results in submission order, so tables built from them are
 * byte-identical at any thread count. Jobs must be independent: each
 * builds its own Simulator/Device/Kernel stack internally, and
 * schedule generation belongs inside the job (seeded, e.g.
 * taSchedule()/poissonCountSeeded()) so it parallelizes with the run
 * instead of serializing on the caller thread.
 */
std::vector<RunMetrics> runMetricsBatch(
    const std::vector<MetricsJob> &jobs);

/** The process-wide sweep pool used by runMetricsBatch(). */
sim::BatchRunner &sweepPool();

} // namespace capy::apps

#endif // CAPY_APPS_EXPERIMENT_HH
