#include "workloads.hh"

#include <bit>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <sstream>
#include <stdexcept>

#include "apps/capysat.hh"
#include "apps/csr.hh"
#include "apps/grc.hh"
#include "apps/ta.hh"
#include "sim/random.hh"

namespace e2e
{

using namespace capy;
using core::Policy;

RunCounts &
RunCounts::operator+=(const RunCounts &o)
{
    events += o.events;
    transitions += o.transitions;
    completions += o.completions;
    restarts += o.restarts;
    boots += o.boots;
    powerFailures += o.powerFailures;
    chargeCycles += o.chargeCycles;
    workloads += o.workloads;
    tornCommits += o.tornCommits;
    tornRecoveries += o.tornRecoveries;
    auditChecks += o.auditChecks;
    violations += o.violations;
    reconfigurations += o.reconfigurations;
    rechargePauses += o.rechargePauses;
    burstRecharges += o.burstRecharges;
    samples += o.samples;
    envQueries += o.envQueries;
    timeOn += o.timeOn;
    return *this;
}

const char *
entryPoint(Rig rig)
{
    switch (rig) {
      case Rig::TempAlarm:
        return "apps::runTempAlarm";
      case Rig::GestureFast:
      case Rig::GestureCompact:
        return "apps::runGestureRemote";
      case Rig::CorrSense:
        return "apps::runCorrSense";
      case Rig::CapySat:
        return "apps::runCapySat";
      case Rig::Checkpoint:
        return "apps::runCheckpointCrashWorkload";
    }
    return "?";
}

bool
intermittent(const RunSpec &spec)
{
    bool app = spec.rig != Rig::CapySat && spec.rig != Rig::Checkpoint;
    return !app || spec.policy != Policy::Continuous;
}

namespace
{

/** FNV-1a over the exact bytes of every simulated statistic. */
class Digest
{
  public:
    void
    add(std::uint64_t v)
    {
        for (int i = 0; i < 8; ++i) {
            h ^= (v >> (8 * i)) & 0xff;
            h *= 0x100000001b3ull;
        }
    }
    void add(double v) { add(std::bit_cast<std::uint64_t>(v)); }
    void
    add(const std::string &s)
    {
        add(std::uint64_t(s.size()));
        for (unsigned char c : s) {
            h ^= c;
            h *= 0x100000001b3ull;
        }
    }
    void
    add(const dev::Device::Stats &d)
    {
        add(d.boots);
        add(d.powerFailures);
        add(d.bootFailures);
        add(d.injectedFailures);
        add(d.workloadsCompleted);
        add(d.workloadsAborted);
        add(d.timeOn);
        add(d.timeCharging);
    }
    void
    add(const apps::FaultReport &f)
    {
        add(f.attempts);
        add(f.fired);
        add(f.outagesAudited);
        add(f.checksRun);
        add(f.violations);
        add(f.violationText);
        add(std::uint64_t(f.activeSpans.size()));
        for (const auto &[up, down] : f.activeSpans) {
            add(up);
            add(down);
        }
    }
    std::uint64_t value() const { return h; }

  private:
    std::uint64_t h = 0xcbf29ce484222325ull;
};

std::uint64_t
digestOf(const apps::RunMetrics &m)
{
    Digest d;
    const auto &s = m.summary;
    for (std::uint64_t v : {std::uint64_t(m.policy), std::uint64_t(s.total),
                            std::uint64_t(s.correct),
                            std::uint64_t(s.misclassified),
                            std::uint64_t(s.proximityOnly),
                            std::uint64_t(s.missed), s.latency.count()})
        d.add(v);
    for (double v : {s.fracCorrect, s.latency.sum(), s.latency.mean(),
                     s.latency.variance(), s.latency.min(),
                     s.latency.max()})
        d.add(v);
    d.add(std::uint64_t(m.intervals.size()));
    for (const auto &iv : m.intervals) {
        d.add(iv.length);
        d.add(std::uint64_t(iv.backToBack) |
              std::uint64_t(iv.containsMissed) << 1);
    }
    d.add(m.device);
    for (std::uint64_t v :
         {m.kernel.taskCompletions, m.kernel.taskRestarts,
          m.kernel.transitions, m.runtime.reconfigurations,
          m.runtime.rechargePauses, m.runtime.burstActivations,
          m.runtime.burstRecharges, m.runtime.prechargePhases,
          m.runtime.prechargeSkips, m.packetsSent, m.packetsLost,
          m.samples, std::uint64_t(m.chargeSpans), m.simEvents})
        d.add(v);
    d.add(m.chargeSpanMean);
    d.add(m.chargeSpanMax);
    for (const auto &[bank, cycles] : m.bankCycles) {
        d.add(bank);
        d.add(cycles);
    }
    for (const auto &[task, use] : m.taskEnergy) {
        d.add(task);
        d.add(use.completions);
        d.add(use.failedAttempts);
        d.add(use.railEnergy);
        d.add(use.wastedEnergy);
        d.add(use.activeTime);
    }
    d.add(m.faults);
    return d.value();
}

std::uint64_t
digestOf(const apps::CapySatResult &r)
{
    Digest d;
    for (std::uint64_t v :
         {r.samples, r.packets, r.packetsDelivered, r.samplesInEclipse,
          r.packetsInEclipse, r.simEvents})
        d.add(v);
    d.add(r.samplingMcu);
    d.add(r.commMcu);
    d.add(r.splitterArea);
    d.add(r.switchArea);
    d.add(r.capacitorVolume);
    d.add(r.faults);
    return d.value();
}

std::uint64_t
digestOf(const apps::CheckpointCrashMetrics &m)
{
    Digest d;
    d.add(std::uint64_t(m.finished));
    d.add(m.progress);
    const auto &k = m.kernel;
    for (std::uint64_t v : {k.checkpoints, k.restores, k.tornCheckpoints,
                            m.tornCommits, m.tornRecoveries, m.simEvents})
        d.add(v);
    for (double v : {k.lostWork, k.overheadTime, k.overheadLost})
        d.add(v);
    d.add(m.device);
    d.add(m.faults);
    return d.value();
}

void
countDevice(RunCounts &c, const dev::Device::Stats &d, bool harvested)
{
    c.boots += d.boots;
    c.powerFailures += d.powerFailures;
    if (harvested) {
        c.chargeCycles += d.boots + d.bootFailures;
        c.workloads += d.workloadsCompleted + d.workloadsAborted;
        c.timeOn += d.timeOn;
    }
}

void
countFaults(RunResult &out, const apps::FaultReport &f)
{
    out.counts.auditChecks = f.checksRun;
    out.counts.violations = f.violations;
    out.violationText = f.violationText;
}

/**
 * Environment lookups per sample on each app's sample-task path:
 * TA reads the thermal rig twice (temperature, then the alarm band),
 * GRC and CSR read the pendulum once.
 */
std::uint64_t
envQueriesPerSample(Rig rig)
{
    return rig == Rig::TempAlarm ? 2 : 1;
}

} // namespace

RunResult
execute(const RunSpec &spec)
{
    RunResult out;
    const apps::FaultSpec *faults =
        spec.faults ? &*spec.faults : nullptr;
    RunCounts &c = out.counts;

    if (spec.rig == Rig::CapySat) {
        auto r = apps::runCapySat(spec.horizon, spec.seed, faults);
        out.digest = digestOf(r);
        c.events = r.simEvents;
        // Both kernels commit a self-transition per completed body.
        c.transitions = c.completions = r.samples + r.packets;
        c.restarts = r.samplingMcu.workloadsAborted +
                     r.commMcu.workloadsAborted;
        countDevice(c, r.samplingMcu, true);
        countDevice(c, r.commMcu, true);
        c.samples = r.samples;
        // OrbitLight::sunlit on every sample and every beacon.
        c.envQueries = r.samples + r.packets;
        countFaults(out, r.faults);
        return out;
    }
    if (spec.rig == Rig::Checkpoint) {
        // Work sized past the horizon, as tools/crash_sweep sizes it.
        auto m = apps::runCheckpointCrashWorkload(faults, spec.horizon,
                                                  spec.horizon);
        out.digest = digestOf(m);
        c.events = m.simEvents;
        c.completions = m.kernel.checkpoints;
        c.restarts = m.kernel.restores;
        c.tornCommits = m.tornCommits;
        c.tornRecoveries = m.tornRecoveries;
        countDevice(c, m.device, true);
        countFaults(out, m.faults);
        return out;
    }

    apps::RunMetrics m;
    switch (spec.rig) {
      case Rig::TempAlarm:
        m = apps::runTempAlarm(spec.policy, *spec.schedule, spec.seed,
                               spec.horizon, -1.0, faults);
        break;
      case Rig::GestureFast:
      case Rig::GestureCompact:
        m = apps::runGestureRemote(spec.rig == Rig::GestureFast
                                       ? apps::GrcVariant::Fast
                                       : apps::GrcVariant::Compact,
                                   spec.policy, *spec.schedule,
                                   spec.seed, spec.horizon, faults);
        break;
      default:
        m = apps::runCorrSense(spec.policy, *spec.schedule, spec.seed,
                               spec.horizon, faults);
        break;
    }
    out.digest = digestOf(m);
    out.fracCorrect = m.summary.fracCorrect;
    c.events = m.simEvents;
    c.transitions = m.kernel.transitions;
    c.completions = m.kernel.taskCompletions;
    c.restarts = m.kernel.taskRestarts;
    countDevice(c, m.device, intermittent(spec));
    c.reconfigurations = m.runtime.reconfigurations;
    c.rechargePauses = m.runtime.rechargePauses;
    c.burstRecharges = m.runtime.burstRecharges;
    c.samples = m.samples;
    c.envQueries = m.samples * envQueriesPerSample(spec.rig);
    countFaults(out, m.faults);
    return out;
}

PinTable
loadPins(const std::string &path)
{
    PinTable pins;
    std::ifstream in(path);
    std::string line;
    while (std::getline(in, line)) {
        if (line.empty() || line[0] == '#')
            continue;
        std::istringstream fields(line);
        std::string workload;
        std::uint64_t seed = 0;
        fields >> workload >> seed;
        std::vector<std::uint64_t> groups;
        std::string hex;
        while (fields >> hex)
            groups.push_back(std::stoull(hex, nullptr, 16));
        pins[{workload, seed}] = std::move(groups);
    }
    return pins;
}

std::vector<std::uint64_t>
groupDigests(const std::vector<std::uint64_t> &run_digests)
{
    std::size_t n = run_digests.size();
    std::vector<std::uint64_t> groups(std::min(n, kPinGroups),
                                      0xcbf29ce484222325ull);
    for (std::size_t i = 0; i < n; ++i) {
        std::uint64_t &g = groups[pinGroup(i, n)];
        g = (g ^ run_digests[i]) * 0x100000001b3ull;
    }
    return groups;
}

const std::vector<std::string> &
workloadNames()
{
    static const std::vector<std::string> names = {"fig08", "capysat",
                                                   "crash"};
    return names;
}

namespace
{

std::uint64_t
splitmix64(std::uint64_t x)
{
    x += 0x9e3779b97f4a7c15ull;
    x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ull;
    x = (x ^ (x >> 27)) * 0x94d049bb133111ebull;
    return x ^ (x >> 31);
}

/** Independent per-purpose seeds drawn from the workload seed. A
 *  mixer, not the first draw of a sim::Rng stream: PCG's first
 *  outputs for nearby stream numbers are nearly equal. */
std::uint64_t
derive(std::uint64_t seed, std::uint64_t stream)
{
    return splitmix64(seed ^ splitmix64(stream));
}

const Policy kPolicies[4] = {Policy::Continuous, Policy::Fixed,
                             Policy::CapyR, Policy::CapyP};
const char *const kPolicyTags[4] = {"pwr", "fixed", "capyr", "capyp"};

void
buildFig08(Inputs &in, std::uint64_t seed)
{
    const env::EventSchedule &ta = in.schedules.emplace_back(
        apps::taSchedule(seed));
    const env::EventSchedule &grc = in.schedules.emplace_back(
        apps::grcSchedule(seed));
    struct App
    {
        const char *tag;
        Rig rig;
        const env::EventSchedule *schedule;
        double horizon;
    };
    const App apps_[4] = {
        {"ta", Rig::TempAlarm, &ta, apps::kTaHorizon},
        {"grcf", Rig::GestureFast, &grc, apps::kGrcHorizon},
        {"grcc", Rig::GestureCompact, &grc, apps::kGrcHorizon},
        {"csr", Rig::CorrSense, &grc, apps::kGrcHorizon},
    };
    // The cell order of bench_fig08_accuracy.
    for (const App &a : apps_) {
        for (int p = 0; p < 4; ++p) {
            RunSpec r;
            r.name = std::string(a.tag) + "_" + kPolicyTags[p];
            r.rig = a.rig;
            r.policy = kPolicies[p];
            r.schedule = a.schedule;
            r.seed = seed;
            r.horizon = a.horizon;
            in.runs.push_back(std::move(r));
        }
    }
}

/** Missions per capysat run set, and orbits per mission. The seed
 *  only decides radio delivery, so every mission runs the same power
 *  and core simulation. Short missions keep a pass short, so a run
 *  holds many passes. */
constexpr int kCapySatMissions = 16;
constexpr double kCapySatOrbits = 5.0;

void
buildCapySat(Inputs &in, std::uint64_t seed)
{
    for (int k = 0; k < kCapySatMissions; ++k) {
        RunSpec r;
        r.name = "capysat" + std::to_string(k);
        r.rig = Rig::CapySat;
        r.seed = derive(seed, 0xca5a7 + std::uint64_t(k));
        r.horizon = kCapySatOrbits;
        in.runs.push_back(std::move(r));
    }
}

/**
 * @p n failure times over the oracle's powered spans, one drawn
 * uniformly from each of n equal strata (tools/crash_sweep takes
 * each stratum's midpoint). Independent draws, rather than one phase
 * shared by all points, keep the run set's size steady from seed to
 * seed.
 */
std::vector<double>
timePointsOverSpans(const std::vector<std::pair<double, double>> &spans,
                    std::size_t n, sim::Rng rng)
{
    double total = 0.0;
    for (const auto &[a, b] : spans)
        total += b - a;
    std::vector<double> out;
    for (std::size_t i = 0; i < n && total > 0.0; ++i) {
        double offset = (double(i) + rng.uniform()) * total / double(n);
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

apps::FaultSpec
auditedSpec(sim::FaultPlan plan)
{
    apps::FaultSpec spec;  // Collapse, audited, latches watched
    spec.plan = std::move(plan);
    return spec;
}

/** CSR schedules per crash run set, time points per schedule. The
 *  schedules' event counts differ, so more of them steady the run
 *  set's size from seed to seed: 192-208 k events over seeds 1-10,
 *  against 178-213 k with 8 x 48. */
constexpr int kCrashCsrSchedules = 32;
constexpr std::size_t kCrashCsrPoints = 12;
/** crash_sweep's default csr and ckpt horizons, s. */
constexpr double kCrashCsrHorizon = 40.0;
constexpr double kCrashCkptHorizon = 240.0;
constexpr std::size_t kCrashCkptTimePoints = 256;

template <typename Fn>
auto
oracle(Inputs &in, SpanRecorder *trace, const char *entry, Fn &&run)
{
    Clock::time_point t0 = Clock::now();
    auto result = [&] {
        ScopedSpan span(trace, std::string(entry) + " (oracle)");
        return run();
    }();
    in.oracleSeconds += seconds(t0, Clock::now());
    if (result.faults.violations != 0 || result.simEvents == 0)
        throw std::runtime_error(std::string("crash oracle ") + entry +
                                 " is not clean:\n" +
                                 result.faults.violationText);
    return result;
}

void
buildCrash(Inputs &in, std::uint64_t seed, SpanRecorder *trace)
{
    const apps::FaultSpec audit_only;
    for (int k = 0; k < kCrashCsrSchedules; ++k) {
        std::uint64_t s = derive(seed, 0xc5a + std::uint64_t(k));
        const env::EventSchedule &sched =
            in.schedules.emplace_back(apps::grcSchedule(s));
        auto o = oracle(in, trace, "apps::runCorrSense", [&] {
            return apps::runCorrSense(Policy::CapyP, sched, s,
                                      kCrashCsrHorizon, &audit_only);
        });
        auto times = timePointsOverSpans(
            o.faults.activeSpans, kCrashCsrPoints,
            sim::Rng(derive(seed, 0x7a5e + std::uint64_t(k))));
        for (std::size_t i = 0; i < times.size(); ++i) {
            RunSpec r;
            r.name = "csr" + std::to_string(k) + "_t" + std::to_string(i);
            r.rig = Rig::CorrSense;
            r.policy = Policy::CapyP;
            r.schedule = &sched;
            r.seed = s;
            r.horizon = kCrashCsrHorizon;
            r.faults = auditedSpec(sim::FaultPlan::atTimes({times[i]}));
            in.runs.push_back(std::move(r));
        }
    }

    auto o = oracle(in, trace, "apps::runCheckpointCrashWorkload", [&] {
        return apps::runCheckpointCrashWorkload(
            &audit_only, kCrashCkptHorizon, kCrashCkptHorizon);
    });
    auto ckpt = [&](std::string name, sim::FaultPlan plan) {
        RunSpec r;
        r.name = std::move(name);
        r.rig = Rig::Checkpoint;
        r.horizon = kCrashCkptHorizon;
        r.faults = auditedSpec(std::move(plan));
        in.runs.push_back(std::move(r));
    };
    // Event-indexed points, as `crash_sweep --app ckpt` (every event
    // of the short oracle), then time-indexed points that land inside
    // the tearable checkpoint commits.
    for (std::uint64_t e = 1; e <= o.simEvents; ++e)
        ckpt("ckpt_e" + std::to_string(e), sim::FaultPlan::atEvent(e));
    auto times = timePointsOverSpans(o.faults.activeSpans,
                                     kCrashCkptTimePoints,
                                     sim::Rng(derive(seed, 0xc4b7)));
    for (std::size_t i = 0; i < times.size(); ++i)
        ckpt("ckpt_t" + std::to_string(i),
             sim::FaultPlan::atTimes({times[i]}));
}

} // namespace

Inputs
buildInputs(const std::string &workload, std::uint64_t seed,
            const std::string &pin_path, SpanRecorder *trace)
{
    Inputs in;
    {
        ScopedSpan span(trace, "inputs." + workload);
        if (workload == "fig08")
            buildFig08(in, seed);
        else if (workload == "capysat")
            buildCapySat(in, seed);
        else if (workload == "crash")
            buildCrash(in, seed, trace);
        else
            throw std::runtime_error("unknown workload '" + workload +
                                     "'");
    }
    ScopedSpan span(trace, "pins.load");
    PinTable pins = loadPins(pin_path);
    auto it = pins.find({workload, seed});
    if (it != pins.end())
        in.pinned = it->second;
    return in;
}

} // namespace e2e
