/**
 * @file
 * Related-work comparison (§7 / §5.2): a DEBS-style V_top-scaling
 * runtime vs Capybara's switched banks, running the TempAlarm
 * workload end to end on the same total storage.
 *
 * V_top scaling matches capacity to tasks too, but: the full
 * capacitance is always connected, so every low-energy cycle pays the
 * big capacitor's dynamics; every mode change writes the EEPROM
 * potentiometer (finite endurance); and there is no pre-charge — the
 * alarm transmission charges on the critical path, like Capy-R.
 */

#include <cstdio>
#include <memory>

#include "apps/boards.hh"
#include "apps/ta.hh"
#include "bench_util.hh"
#include "core/vtop_runtime.hh"
#include "dev/peripheral.hh"
#include "dev/radio.hh"
#include "env/thermal.hh"
#include "power/parts.hh"
#include "power/units.hh"
#include "rt/channel.hh"
#include "sim/logging.hh"
#include "sim/stats.hh"

using namespace capy;
using namespace capy::apps;
using namespace capy::bench;
using namespace capy::core;
using namespace capy::literals;

namespace
{

constexpr std::uint64_t kSeed = 31415;

/** TA on a single fixed capacitor with a V_top-scaling runtime. */
struct VtopResult
{
    env::Scoreboard::Summary summary;
    std::uint64_t samples = 0;
    std::uint64_t eepromWrites = 0;
    std::uint64_t thresholdChanges = 0;
};

VtopResult
runVtopTempAlarm(std::uint64_t seed, double horizon)
{
    // Draw the schedule with this job's own seeded generator —
    // generation stays off the sweep submitter's critical path and
    // the sequence is a pure function of the seed.
    env::EventSchedule schedule = taSchedule(seed);
    VtopResult out;
    sim::Simulator simulator;
    power::PowerSystem::Spec spec;
    auto ps = std::make_unique<power::PowerSystem>(
        spec, std::make_unique<power::SolarArray>(
                  2, 1.0e-3, 2.5,
                  [](sim::Time) { return 0.42; }, 60.0));
    // One fixed capacitor holding the combined TA storage.
    ps->addBank("fixed",
                power::parallelCompose(
                    {power::parts::x5r100uF().parallel(3),
                     power::parts::tant100uF(),
                     power::parts::tant1000uF(),
                     power::parts::edlc7_5mF()}));
    dev::Device device(simulator, std::move(ps), dev::msp430fr5969(),
                       dev::Device::PowerMode::Intermittent);

    env::ThermalRig rig(schedule);
    env::Scoreboard sb(schedule);
    dev::Radio radio(dev::bleRadio());
    sim::Rng rng(kSeed, 0x1a);
    dev::NvMemory fram("fram");
    dev::NvMemory eeprom("potentiometer", 100000);

    rt::RingChannel<double, 15> series(&fram);
    rt::Channel<int> pendingAlarm(&fram, -1);
    rt::Channel<int> lastReported(&fram, -1);

    rt::App app;
    const auto tmp36 = dev::periph::tmp36();
    const auto ble = dev::bleRadio();
    rt::Task *sense = nullptr;
    rt::Task *radio_tx = nullptr;
    radio_tx = app.addTask(
        "radio_tx", txDuration(ble, 25), 0.0,
        [&](rt::Kernel &k) -> const rt::Task * {
            int ev = pendingAlarm.get();
            lastReported.set(ev);
            if (radio.attemptDelivery(rng))
                sb.recordReport(ev, k.now());
            return sense;
        });
    radio_tx->absolutePower = ble.txPower;
    sense = app.addTask(
        "sense", 8_ms + tmp36.warmupTime, tmp36.activePower,
        [&](rt::Kernel &k) -> const rt::Task * {
            sim::Time t = k.now();
            sb.recordSample(t);
            series.push(rig.temperature(t));
            int ev = rig.alarmEventAt(t);
            if (ev >= 0) {
                sb.recordDetection(ev);
                if (lastReported.get() != ev) {
                    pendingAlarm.set(ev);
                    return radio_tx;
                }
            }
            return sense;
        });
    app.setEntry(sense);

    rt::Kernel kernel(device, app, &fram);
    VtopRuntime runtime(kernel, &eeprom);
    // Thresholds holding the same energy as the Capybara banks:
    // E_small on 8.9 mF -> ~0.64 V, but the booster needs 1.7 V;
    // the low threshold is clamped to the feasible minimum — an
    // inherent inefficiency of the mechanism.
    runtime.annotate(sense, 1.75);
    runtime.annotate(radio_tx, 3.0);
    runtime.install();
    kernel.start();
    simulator.runUntil(horizon);
    assertLedgerBalances(device.powerSystem());

    out.summary = sb.summarize();
    out.samples = sb.sampleCount();
    out.eepromWrites = runtime.eepromWrites();
    out.thresholdChanges = runtime.stats().thresholdChanges;
    return out;
}

} // namespace

int
main()
{
    setQuiet(true);
    banner("Section 7 comparison",
           "DEBS-style V_top scaling vs switched banks (TempAlarm)");

    // Both runs replay the same Poisson sequence, but each job draws
    // it worker-side from the shared seed instead of the caller
    // pre-generating one — the V_top and Capy-P simulations fan out
    // as one batch with byte-identical output at any CAPY_JOBS.
    VtopResult vtop;
    RunMetrics capy_p;
    sweepPool().forEach(2, [&vtop, &capy_p](std::size_t i) {
        if (i == 0)
            vtop = runVtopTempAlarm(kSeed, kTaHorizon);
        else
            capy_p = runTempAlarm(Policy::CapyP, taSchedule(kSeed),
                                  kSeed);
    });

    sim::Table t({"system", "correct", "missed", "latency mean (s)",
                  "samples", "EEPROM writes / 2 h"});
    t.addRow({"V_top scaling (DEBS-style)",
              sim::percentCell(vtop.summary.fracCorrect),
              sim::cell(vtop.summary.missed),
              vtop.summary.latency.count()
                  ? sim::cell(vtop.summary.latency.mean(), 4)
                  : "-",
              sim::cell(vtop.samples), sim::cell(vtop.eepromWrites)});
    t.addRow({"Capybara (Capy-P)",
              sim::percentCell(capy_p.summary.fracCorrect),
              sim::cell(capy_p.summary.missed),
              sim::cell(capy_p.summary.latency.mean(), 4),
              sim::cell(capy_p.samples), "0"});
    t.print();

    double years_to_wearout =
        vtop.eepromWrites
            ? 100000.0 / (double(vtop.eepromWrites) * 12.0) / 365.0
            : 1e9;
    std::printf("\nEEPROM potentiometer endurance 100k writes -> "
                "projected wear-out in %.1f years at this rate\n",
                years_to_wearout);

    shapeCheck(vtop.summary.fracCorrect > 0.3,
               "V_top scaling does work — it is a legitimate "
               "reconfiguration mechanism");
    shapeCheck(capy_p.summary.fracCorrect >=
                   vtop.summary.fracCorrect,
               "switched banks detect at least as many events (no "
               "full-capacitance penalty on the sampling mode)");
    shapeCheck(capy_p.summary.latency.mean() <
                   vtop.summary.latency.mean(),
               "without pre-charged bursts, V_top alarms pay the "
               "charge on the critical path (like Capy-R)");
    shapeCheck(vtop.eepromWrites > 50,
               "every mode change wears the EEPROM potentiometer "
               "(§5.2 lifetime limit)");
    return finish();
}
