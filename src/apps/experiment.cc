#include "apps/experiment.hh"

#include <cmath>
#include <utility>

#include "sim/logging.hh"

namespace capy::apps
{

env::EventSchedule
taSchedule(std::uint64_t seed)
{
    // Leave the cold-start period event-free, as the rigs do.
    return env::EventSchedule::poissonCountSeeded(
        seed, 0x7a, kTaEvents, kTaHorizon, 60.0);
}

env::EventSchedule
grcSchedule(std::uint64_t seed)
{
    return env::EventSchedule::poissonCountSeeded(
        seed, 0x9c, kGrcEvents, kGrcHorizon, 30.0);
}

void
collectMetrics(RunMetrics &out, env::Scoreboard &&sb,
               const dev::Device &device, const rt::Kernel &kernel,
               const core::Runtime &runtime, const dev::Radio &radio)
{
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
