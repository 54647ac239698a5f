/**
 * @file
 * Reproduces Fig. 2: execution with a fixed-capacity energy buffer.
 *
 * The application tries to collect a 15-sample time series and then
 * transmit it by radio. With a small buffer it samples reactively
 * (short recharges) but can never complete the transmission; with a
 * large buffer it completes the transmission but spends long spans
 * charging and samples in clumps.
 */

#include <cstdio>
#include <memory>

#include "apps/boards.hh"
#include "bench_util.hh"
#include "dev/device.hh"
#include "dev/peripheral.hh"
#include "dev/radio.hh"
#include "power/parts.hh"
#include "power/units.hh"
#include "rt/channel.hh"
#include "rt/kernel.hh"
#include "sim/logging.hh"
#include "sim/runner.hh"
#include "sim/simulator.hh"
#include "sim/stats.hh"
#include "sim/trace.hh"

using namespace capy;
using namespace capy::bench;
using namespace capy::literals;

namespace
{

struct FixedRun
{
    std::uint64_t samples = 0;
    std::uint64_t packets = 0;
    std::uint64_t txAborts = 0;
    std::uint64_t chargeSpans = 0;
    double chargeMean = 0.0;
    double chargeMax = 0.0;
    double onFraction = 0.0;
    sim::TimeSeries volts{"V"};
};

FixedRun
run(const power::CapacitorSpec &bank, double horizon)
{
    FixedRun out;
    sim::Simulator simulator;
    power::PowerSystem::Spec spec;
    auto ps = std::make_unique<power::PowerSystem>(
        spec, std::make_unique<power::RegulatedSupply>(
                  apps::grcHarvestPower(), 3.3));
    ps->addBank("fixed", bank);
    // The strip chart reads 60 coarse columns; no need to retain
    // every internal step of the voltage trajectory.
    out.volts.capPoints(65536);
    ps->attachVoltageTrace(&out.volts);
    dev::Device device(simulator, std::move(ps), dev::msp430fr5969(),
                       dev::Device::PowerMode::Intermittent);

    const auto tmp36 = dev::periph::tmp36();
    const auto ble = dev::bleRadio();
    dev::NvMemory fram;
    rt::Channel<int> count(&fram, 0);

    rt::App app;
    rt::Task *sense = nullptr;
    rt::Task *tx = nullptr;
    tx = app.addTask("radio_tx", txDuration(ble, 25), 0.0,
                     [&](rt::Kernel &) -> const rt::Task * {
                         ++out.packets;
                         count.set(0);
                         return sense;
                     });
    tx->absolutePower = ble.txPower;
    sense = app.addTask(
        "sense", 8_ms + tmp36.warmupTime, tmp36.activePower,
        [&](rt::Kernel &) -> const rt::Task * {
            ++out.samples;
            count.set(count.get() + 1);
            return count.get() >= 15 ? tx : sense;
        });
    app.setEntry(sense);

    rt::Kernel kernel(device, app, &fram);
    kernel.start();
    simulator.runUntil(horizon);

    const dev::Device::Stats &st = device.stats();
    out.chargeSpans = st.chargeSpans;
    out.chargeMax = st.chargeSpanMax;
    if (out.chargeSpans)
        out.chargeMean = st.timeCharging / double(out.chargeSpans);
    out.onFraction = st.timeOn / horizon;
    out.txAborts = st.workloadsAborted;
    return out;
}

void
printTimeline(const FixedRun &r, double horizon, const char *label)
{
    // Coarse voltage strip chart: one column per horizon/60 seconds.
    std::printf("  %s voltage (0..3 V, %g s per column):\n    ", label,
                horizon / 60.0);
    for (int i = 0; i < 60; ++i) {
        double t = horizon * (double(i) + 0.5) / 60.0;
        double v = r.volts.empty() ? 0.0 : r.volts.at(t);
        const char *glyph = v < 0.75   ? "_"
                            : v < 1.5  ? "."
                            : v < 2.25 ? "-"
                                       : "^";
        std::printf("%s", glyph);
    }
    std::printf("\n");
}

} // namespace

int
main()
{
    setQuiet(true);
    banner("Figure 2", "execution with a fixed-capacity energy buffer");
    std::printf(
        "workload: collect 15 sensor samples, then transmit by radio\n"
        "harvester: regulated %.1f mW bench supply\n\n",
        apps::grcHarvestPower() * 1e3);

    const double horizon = 600.0;
    // Low capacity: the paper's small GRC bank (ceramic + tantalum).
    auto low_bank = power::parallelCompose(
        {power::parts::x5r100uF().parallel(4),
         power::parts::tant330uF()});
    // High capacity: the paper's fixed worst-case GRC bank.
    auto high_bank = power::parallelCompose(
        {power::parts::x5r100uF().parallel(4),
         power::parts::tant330uF(),
         power::parts::edlc7_5mF().parallel(9)});

    const power::CapacitorSpec banks[2] = {low_bank, high_bank};
    sim::BatchRunner pool;
    auto runs = pool.map(2, [&](std::size_t i) {
        return run(banks[i], horizon);
    });
    const FixedRun &low = runs[0];
    const FixedRun &high = runs[1];

    sim::Table t({"capacity", "C (mF)", "samples", "complete packets",
                  "failed tx attempts", "charge spans", "mean charge (s)",
                  "max charge (s)", "on fraction"});
    t.addRow({"low", sim::cell(low_bank.capacitance * 1e3),
              sim::cell(low.samples), sim::cell(low.packets),
              sim::cell(low.txAborts), sim::cell(low.chargeSpans),
              sim::cell(low.chargeMean, 3), sim::cell(low.chargeMax, 3),
              sim::cell(low.onFraction, 3)});
    t.addRow({"high", sim::cell(high_bank.capacitance * 1e3),
              sim::cell(high.samples), sim::cell(high.packets),
              sim::cell(high.txAborts), sim::cell(high.chargeSpans),
              sim::cell(high.chargeMean, 3), sim::cell(high.chargeMax, 3),
              sim::cell(high.onFraction, 3)});
    t.print();
    std::printf("\n");
    printTimeline(low, horizon, "low capacity ");
    printTimeline(high, horizon, "high capacity");
    std::printf("\n");

    shapeCheck(low.packets == 0,
               "low capacity buffers insufficient energy to ever "
               "complete the radio packet");
    shapeCheck(low.txAborts > 0,
               "low capacity repeatedly attempts and fails the packet");
    shapeCheck(high.packets >= 1,
               "high capacity completes packets");
    shapeCheck(high.chargeMean > 10.0 * low.chargeMean,
               "high capacity spends much longer recharging per span");
    shapeCheck(low.chargeSpans > 4 * high.chargeSpans,
               "low capacity charges in many short spans (reactive "
               "sampling)");
    return finish();
}
