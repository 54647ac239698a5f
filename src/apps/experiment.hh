/**
 * @file
 * Shared experiment driver: per-run metrics, the table of the
 * paper's four apps with their event counts/horizons (§6.2), and the
 * run tail and metric collection every app run shares.
 */

#ifndef CAPY_APPS_EXPERIMENT_HH
#define CAPY_APPS_EXPERIMENT_HH

#include <functional>
#include <map>
#include <string>
#include <string_view>
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

/** How an app's Poisson event sequence is drawn (§6.2). */
struct ScheduleSpec
{
    std::size_t events;
    /** Last instant of the sequence, s; also the app's run length. */
    double horizon;
    /** sim::Rng stream of the draw. */
    std::uint64_t stream;
    /** Cold-start period left event-free, s, as the rigs do. */
    double eventFree;
};

/** TA: 50 events over 120 minutes (§6.2). */
inline constexpr ScheduleSpec kTaScheduleSpec{50, 120.0 * 60.0, 0x7a,
                                              60.0};
/** GRC and CSR: 80 events over 42 minutes (§6.2). */
inline constexpr ScheduleSpec kGrcScheduleSpec{80, 42.0 * 60.0, 0x9c,
                                               30.0};

inline constexpr double kTaHorizon = kTaScheduleSpec.horizon;
inline constexpr std::size_t kTaEvents = kTaScheduleSpec.events;
inline constexpr double kGrcHorizon = kGrcScheduleSpec.horizon;
inline constexpr std::size_t kGrcEvents = kGrcScheduleSpec.events;

/**
 * @p spec's event sequence drawn from (@p seed, spec.stream).
 *
 * Pure function of its arguments (a private generator per call), so
 * sweep jobs draw their own schedule on the worker thread instead of
 * the caller pre-generating and sharing one — same bytes at any
 * CAPY_JOBS.
 */
env::EventSchedule drawSchedule(const ScheduleSpec &spec,
                                std::uint64_t seed);

/** The paper's TA event sequence: drawSchedule(kTaScheduleSpec). */
env::EventSchedule taSchedule(std::uint64_t seed);

/** The paper's GRC/CSR event sequence:
 *  drawSchedule(kGrcScheduleSpec). */
env::EventSchedule grcSchedule(std::uint64_t seed);

/** One of the four applications the paper evaluates (§6.1). */
struct PaperApp
{
    /** Which app, and its §6.1 provisioning. */
    AppBoard board;
    /** Display name: the app's row label in the figures. */
    const char *name;
    /** Command-line name (capybara_cli's --app). */
    const char *cliName;
    ScheduleSpec schedule;
};

/** The paper's four apps, in Fig. 8's row order. */
inline constexpr PaperApp kPaperApps[] = {
    {AppBoard::TempAlarm, "TempAlarm", "ta", kTaScheduleSpec},
    {AppBoard::GestureFast, "GestureFast", "grc-fast", kGrcScheduleSpec},
    {AppBoard::GestureCompact, "GestureCompact", "grc-compact",
     kGrcScheduleSpec},
    {AppBoard::CorrSense, "CorrSense", "csr", kGrcScheduleSpec},
};

/** The four power systems, in the figures' order: Pwr, Fixed,
 *  Capy-R, Capy-P. */
inline constexpr core::Policy kPaperPolicies[] = {
    core::Policy::Continuous, core::Policy::Fixed, core::Policy::CapyR,
    core::Policy::CapyP};

/** The kPaperApps row named @p cli_name; nullptr when none is. */
const PaperApp *findPaperApp(std::string_view cli_name);

/**
 * Run @p app under @p policy against @p schedule for @p horizon
 * seconds: runTempAlarm, runGestureRemote or runCorrSense, by
 * app.board.
 * @param faults optional fault-injection/audit spec (crash sweeps).
 */
RunMetrics runApp(const PaperApp &app, core::Policy policy,
                  const env::EventSchedule &schedule,
                  std::uint64_t seed, double horizon,
                  const FaultSpec *faults = nullptr);

/**
 * The end every app run shares, once its tasks are annotated:
 * install @p runtime's gate, attach a FaultHarness to the kernel's
 * device when @p faults is set, start @p kernel, run its simulator
 * to @p horizon, and collect the run's metrics. Takes the
 * scoreboard's sample log over for `intervals`, and asserts that the
 * power system's energy ledger balances (assertLedgerBalances()).
 */
RunMetrics runToHorizon(rt::Kernel &kernel, core::Runtime &runtime,
                        dev::NvMemory &fram, env::Scoreboard &&sb,
                        const dev::Radio &radio, double horizon,
                        const FaultSpec *faults);

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
