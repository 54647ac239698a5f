/**
 * @file
 * Exhaustive crash-consistency sweep driver.
 *
 * Runs an application workload once uninterrupted (the oracle) to
 * learn how many simulator events the run executes, then re-runs it
 * once per failure point — a power failure injected immediately after
 * the k-th executed event — with the crash auditor attached. Any
 * auditor violation in any replica fails the sweep.
 *
 * Replicas are independent seeded simulations fanned out on the
 * shared sweep pool, so the sweep output is byte-identical at any
 * CAPY_JOBS.
 *
 * Exit codes: 0 sweep clean; 1 violations found; 2 usage/oracle
 * error (including a numeric option value that is not wholly a
 * number, and --break-recovery on any app but ckpt, the only one
 * with a checkpoint journal to break). With --expect-caught the
 * meaning of 0/1 inverts: the sweep must find violations (the
 * broken-recovery fixture demo).
 *
 * Examples:
 *   crash_sweep --app csr --every-event
 *   crash_sweep --app ckpt --every-event --break-recovery \
 *       --expect-caught
 */

#include <cinttypes>
#include <cstdio>
#include <cstdlib>
#include <string>
#include <vector>

#include "apps/capysat.hh"
#include "apps/experiment.hh"
#include "apps/faults.hh"
#include "sim/cli.hh"

namespace
{

using namespace capy;
using apps::FaultSpec;

struct Options
{
    std::string app = "csr";
    bool everyEvent = false;
    std::uint64_t stride = 0;     ///< 0 = auto (~kAutoPoints points)
    std::uint64_t maxPoints = 0;  ///< 0 = unlimited
    std::uint64_t timePoints = 0; ///< >0 = time-indexed sweep
    double horizon = -1.0;        ///< <0 = per-app default
    std::uint64_t seed = 1;
    bool glitch = false;
    bool breakRecovery = false;
    bool expectCaught = false;
    bool verbose = false;
};

constexpr std::uint64_t kAutoPoints = 256;

/** Common shape of one (oracle or faulted) replica. */
struct SweepRun
{
    std::uint64_t simEvents = 0;
    apps::FaultReport faults;
    std::uint64_t powerFailures = 0;
    std::uint64_t injectedFailures = 0;
    double progress = 0.0;  ///< app-specific progress metric
};

double
defaultHorizon(const std::string &app)
{
    // Short horizons keep every-event sweeps tractable: long enough
    // to boot, work across several charge cycles, and (for the event
    // apps) reach the first environment event.
    if (app == "ta")
        return 90.0;
    if (app == "capysat")
        return 0.03;  // orbits
    if (app == "ckpt")
        return 240.0;
    return 40.0;  // csr, grc
}

/** The paper app a Chain sweep runs, under Capy-P: csr, ta, or grc
 *  for GRC-Compact; nullptr for the other --app values. */
const apps::PaperApp *
chainApp(const std::string &name)
{
    if (name == "grc")
        return apps::findPaperApp("grc-compact");
    return name == "csr" || name == "ta" ? apps::findPaperApp(name)
                                         : nullptr;
}

SweepRun
runReplica(const Options &opt, const FaultSpec *spec, double horizon)
{
    SweepRun out;
    if (opt.app == "ckpt") {
        // Work sized past the horizon: the rig charge-cycles for the
        // whole run instead of idling after an early completion, so
        // time-indexed points always target live execution.
        auto m = apps::runCheckpointCrashWorkload(spec, horizon,
                                                  horizon);
        out.simEvents = m.simEvents;
        out.faults = m.faults;
        out.powerFailures = m.device.powerFailures;
        out.injectedFailures = m.device.injectedFailures;
        out.progress = m.progress;
        return out;
    }
    if (opt.app == "capysat") {
        auto m = apps::runCapySat(horizon, opt.seed, spec);
        out.simEvents = m.simEvents;
        out.faults = m.faults;
        out.powerFailures = m.samplingMcu.powerFailures +
                            m.commMcu.powerFailures;
        out.injectedFailures = m.samplingMcu.injectedFailures +
                               m.commMcu.injectedFailures;
        out.progress =
            double(m.samples) + double(m.packetsDelivered);
        return out;
    }

    const apps::PaperApp &app = *chainApp(opt.app);
    apps::RunMetrics m =
        apps::runApp(app, core::Policy::CapyP,
                     apps::drawSchedule(app.schedule, opt.seed), opt.seed,
                     horizon, spec);
    out.simEvents = m.simEvents;
    out.faults = m.faults;
    out.powerFailures = m.device.powerFailures;
    out.injectedFailures = m.device.injectedFailures;
    out.progress = double(m.kernel.transitions);
    return out;
}

FaultSpec
baseSpec(const Options &opt)
{
    FaultSpec spec;
    spec.kind = opt.glitch ? dev::Device::FailureKind::Glitch
                           : dev::Device::FailureKind::Collapse;
    spec.audit = true;
    spec.breakRecovery = opt.breakRecovery;
    return spec;
}

/**
 * N failure times spread evenly across the oracle's powered spans.
 * Event-indexed points only ever strike at event boundaries, so a
 * failure *inside* a multi-word NV commit window — the case the
 * journal protocol exists for — needs explicit time-indexed points.
 */
std::vector<double>
timePointsOverSpans(
    const std::vector<std::pair<double, double>> &spans,
    std::uint64_t n)
{
    double total = 0.0;
    for (const auto &[a, b] : spans)
        total += b - a;
    std::vector<double> out;
    if (total <= 0.0 || n == 0)
        return out;
    for (std::uint64_t i = 0; i < n; ++i) {
        double offset = (double(i) + 0.5) * total / double(n);
        for (const auto &[a, b] : spans) {
            if (offset <= b - a) {
                out.push_back(a + offset);
                break;
            }
            offset -= b - a;
        }
    }
    return out;
}

constexpr char kUsage[] =
    "usage: crash_sweep [--app csr|grc|ta|capysat|ckpt]\n"
    "    [--every-event | --stride N | --time-points N]\n"
    "    [--max-points N] [--horizon S] [--seed N] [--glitch]\n"
    "    [--break-recovery] [--expect-caught] [--verbose]\n";

int
usage()
{
    std::fputs(kUsage, stderr);
    return 2;
}

} // namespace

int
main(int argc, char **argv)
{
    Options opt;
    for (int i = 1; i < argc; ++i) {
        std::string arg = argv[i];
        auto next = [&]() -> const char * {
            if (i + 1 >= argc) {
                std::fprintf(stderr, "%s needs a value\n",
                             arg.c_str());
                std::exit(2);
            }
            return argv[++i];
        };
        if (arg == "--app")
            opt.app = next();
        else if (arg == "--every-event")
            opt.everyEvent = true;
        else if (arg == "--stride")
            opt.stride = sim::parseCount(next(), kUsage);
        else if (arg == "--max-points")
            opt.maxPoints = sim::parseCount(next(), kUsage);
        else if (arg == "--time-points")
            opt.timePoints = sim::parseCount(next(), kUsage);
        else if (arg == "--horizon") {
            opt.horizon = sim::parseNumber(next(), kUsage);
            sim::requireAbove(opt.horizon, 0.0, "--horizon", kUsage);
        }
        else if (arg == "--seed")
            opt.seed = sim::parseCount(next(), kUsage);
        else if (arg == "--glitch")
            opt.glitch = true;
        else if (arg == "--break-recovery")
            opt.breakRecovery = true;
        else if (arg == "--expect-caught")
            opt.expectCaught = true;
        else if (arg == "--verbose")
            opt.verbose = true;
        else
            return usage();
    }
    if (opt.app != "ckpt" && opt.app != "capysat" && !chainApp(opt.app)) {
        std::fprintf(stderr, "unknown app '%s'\n", opt.app.c_str());
        return 2;
    }
    if (opt.breakRecovery && opt.app != "ckpt") {
        std::fprintf(stderr, "--break-recovery needs --app ckpt: the "
                             "other apps keep no checkpoint journal\n");
        return usage();
    }

    double horizon =
        opt.horizon >= 0.0 ? opt.horizon : defaultHorizon(opt.app);

    // --- Oracle: uninterrupted, audit-only. ---
    FaultSpec oracle_spec;  // empty plan: no injection
    oracle_spec.breakRecovery = opt.breakRecovery;
    SweepRun oracle = runReplica(opt, &oracle_spec, horizon);
    std::printf("crash_sweep app=%s horizon=%g seed=%" PRIu64
                " kind=%s\n",
                opt.app.c_str(), horizon, opt.seed,
                opt.glitch ? "glitch" : "collapse");
    std::printf("oracle: events=%" PRIu64 " progress=%.9g "
                "powerFailures=%" PRIu64 " auditChecks=%" PRIu64
                " violations=%" PRIu64 "\n",
                oracle.simEvents, oracle.progress,
                oracle.powerFailures, oracle.faults.checksRun,
                oracle.faults.violations);
    if (oracle.faults.violations != 0) {
        std::printf("oracle run failed its audit:\n%s",
                    oracle.faults.violationText.c_str());
        if (opt.expectCaught) {
            std::printf("OK: auditor caught the broken recovery "
                        "path (oracle run)\n");
            return 0;
        }
        return 2;
    }
    if (oracle.simEvents == 0) {
        std::fprintf(stderr, "oracle executed no events\n");
        return 2;
    }

    // --- Enumerate failure points. ---
    struct Point
    {
        std::string label;
        FaultSpec spec;
    };
    std::vector<Point> points;
    if (opt.timePoints > 0) {
        std::vector<double> times = timePointsOverSpans(
            oracle.faults.activeSpans, opt.timePoints);
        if (times.empty()) {
            std::fprintf(stderr,
                         "oracle recorded no powered spans\n");
            return 2;
        }
        for (double t : times) {
            Point p;
            char buf[48];
            std::snprintf(buf, sizeof buf, "t=%.9g", t);
            p.label = buf;
            p.spec = baseSpec(opt);
            p.spec.plan = sim::FaultPlan::atTimes({t});
            points.push_back(std::move(p));
        }
        std::printf("sweep: %zu time-indexed failure points over "
                    "%zu powered spans\n",
                    points.size(), oracle.faults.activeSpans.size());
    } else {
        std::uint64_t stride;
        if (opt.everyEvent)
            stride = 1;
        else if (opt.stride > 0)
            stride = opt.stride;
        else
            stride = std::max<std::uint64_t>(
                1, oracle.simEvents / kAutoPoints);
        std::vector<std::uint64_t> ks;
        for (std::uint64_t k = 1; k <= oracle.simEvents; k += stride)
            ks.push_back(k);
        if (opt.maxPoints > 0 && ks.size() > opt.maxPoints) {
            std::vector<std::uint64_t> thinned;
            std::uint64_t thin =
                (ks.size() + opt.maxPoints - 1) / opt.maxPoints;
            for (std::size_t i = 0; i < ks.size(); i += thin)
                thinned.push_back(ks[i]);
            ks.swap(thinned);
        }
        for (std::uint64_t k : ks) {
            Point p;
            char buf[48];
            std::snprintf(buf, sizeof buf, "event=%" PRIu64, k);
            p.label = buf;
            p.spec = baseSpec(opt);
            p.spec.plan = sim::FaultPlan::atEvent(k);
            points.push_back(std::move(p));
        }
        std::printf("sweep: %zu event-indexed failure points "
                    "(stride %" PRIu64 ")\n",
                    points.size(), stride);
    }

    // --- Faulted replicas, fanned out deterministically. ---
    std::vector<SweepRun> runs = apps::sweepPool().map(
        points.size(), [&](std::size_t i) {
            return runReplica(opt, &points[i].spec, horizon);
        });

    // --- Aggregate. ---
    std::uint64_t fired = 0, violations = 0, attempted = 0;
    std::uint64_t reported = 0;
    for (std::size_t i = 0; i < runs.size(); ++i) {
        const SweepRun &r = runs[i];
        attempted += r.faults.attempts;
        fired += r.faults.fired;
        violations += r.faults.violations;
        if (opt.verbose || r.faults.violations != 0) {
            std::printf("point %s: fired=%" PRIu64
                        " failures=%" PRIu64 " progress=%.9g"
                        " checks=%" PRIu64 " outages=%" PRIu64
                        " violations=%" PRIu64 "\n",
                        points[i].label.c_str(), r.faults.fired,
                        r.powerFailures, r.progress,
                        r.faults.checksRun, r.faults.outagesAudited,
                        r.faults.violations);
        }
        if (r.faults.violations != 0 && reported < 20) {
            std::fputs(r.faults.violationText.c_str(), stdout);
            ++reported;
        }
    }
    std::printf("summary: points=%zu attempts=%" PRIu64
                " fired=%" PRIu64 " violations=%" PRIu64 "\n",
                points.size(), attempted, fired, violations);

    if (opt.expectCaught) {
        if (violations == 0) {
            std::printf("FAIL: expected the auditor to catch the "
                        "broken recovery path, but the sweep came "
                        "back clean\n");
            return 1;
        }
        std::printf("OK: auditor caught the broken recovery path\n");
        return 0;
    }
    if (violations != 0) {
        std::printf("FAIL: crash-consistency violations found\n");
        return 1;
    }
    std::printf("OK: sweep clean\n");
    return 0;
}
