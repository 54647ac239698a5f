#include "apps/experiment.hh"

#include <cmath>
#include <optional>
#include <utility>

#include "apps/csr.hh"
#include "apps/grc.hh"
#include "apps/ta.hh"
#include "sim/logging.hh"

namespace capy::apps
{

env::EventSchedule
drawSchedule(const ScheduleSpec &spec, std::uint64_t seed)
{
    return env::EventSchedule::poissonCountSeeded(
        seed, spec.stream, spec.events, spec.horizon, spec.eventFree);
}

env::EventSchedule
taSchedule(std::uint64_t seed)
{
    return drawSchedule(kTaScheduleSpec, seed);
}

env::EventSchedule
grcSchedule(std::uint64_t seed)
{
    return drawSchedule(kGrcScheduleSpec, seed);
}

const PaperApp *
findPaperApp(std::string_view cli_name)
{
    for (const PaperApp &app : kPaperApps)
        if (cli_name == app.cliName)
            return &app;
    return nullptr;
}

RunMetrics
runApp(const PaperApp &app, core::Policy policy,
       const env::EventSchedule &schedule, std::uint64_t seed,
       double horizon, const FaultSpec *faults)
{
    switch (app.board) {
      case AppBoard::TempAlarm:
        return runTempAlarm(policy, schedule, seed, horizon, -1.0,
                            faults);
      case AppBoard::GestureFast:
        return runGestureRemote(GrcVariant::Fast, policy, schedule, seed,
                                horizon, faults);
      case AppBoard::GestureCompact:
        return runGestureRemote(GrcVariant::Compact, policy, schedule,
                                seed, horizon, faults);
      case AppBoard::CorrSense:
        return runCorrSense(policy, schedule, seed, horizon, faults);
    }
    capy_panic("unknown AppBoard %d", static_cast<int>(app.board));
}

RunMetrics
runToHorizon(rt::Kernel &kernel, core::Runtime &runtime,
             dev::NvMemory &fram, env::Scoreboard &&sb,
             const dev::Radio &radio, double horizon,
             const FaultSpec *faults)
{
    runtime.install();

    dev::Device &device = kernel.device();
    std::optional<FaultHarness> harness;
    if (faults) {
        harness.emplace({&device}, *faults, &fram);
        harness->watchKernel(kernel);
    }

    kernel.start();
    device.simulator().runUntil(horizon);

    RunMetrics out;
    out.policy = runtime.policy();
    out.summary = sb.summarize();
    out.samples = sb.sampleCount();
    out.intervals = std::move(sb).sampleIntervals();
    out.device = device.stats();
    out.kernel = kernel.stats();
    out.runtime = runtime.stats();
    out.packetsSent = radio.packetsSent();
    out.packetsLost = radio.packetsLost();
    out.simEvents = device.simulator().eventsExecuted();

    out.chargeSpans = out.device.chargeSpans;
    out.chargeSpanMax = out.device.chargeSpanMax;
    out.chargeSpanMean =
        out.chargeSpans ? out.device.timeCharging / double(out.chargeSpans)
                        : 0.0;

    const auto &ps = device.powerSystem();
    for (int i = 0; i < ps.numBanks(); ++i) {
        out.bankCycles.emplace_back(ps.bank(i).name(),
                                    ps.bank(i).cyclesUsed());
    }
    out.taskEnergy = kernel.energyByTask();

    assertLedgerBalances(ps);
    if (harness)
        out.faults = harness->finish();
    return out;
}

void
assertLedgerBalances(const power::PowerSystem &ps)
{
    double residual = ps.ledgerResidual();
    double harvested = ps.stats().harvestedIn;
    capy_assert(std::abs(residual) <= 1e-6 * harvested + 1e-12,
                "energy ledger misses %g J of %g J harvested", residual,
                harvested);
}

sim::BatchRunner &
sweepPool()
{
    static sim::BatchRunner pool;
    return pool;
}

std::vector<RunMetrics>
runMetricsBatch(const std::vector<MetricsJob> &jobs)
{
    return sweepPool().map(jobs.size(),
                           [&](std::size_t i) { return jobs[i](); });
}

std::uint64_t
bankCyclesFor(const RunMetrics &m, const std::string &bank_name)
{
    for (const auto &[name, cycles] : m.bankCycles)
        if (name == bank_name)
            return cycles;
    return 0;
}

} // namespace capy::apps
