/**
 * @file
 * Reproduces Fig. 3: the design space for energy buffer capacity.
 *
 * For each capacitance we measure the longest span of ALU operations
 * the device can execute before a power failure (atomicity, Mops) and
 * the recharge time (reactivity). Configurations left of a task's
 * requirement are infeasible; configurations far right are
 * overprovisioned and not reactive.
 */

#include <cstdio>
#include <memory>
#include <vector>

#include "apps/experiment.hh"
#include "bench_util.hh"
#include "dev/device.hh"
#include "power/parts.hh"
#include "power/power_system.hh"
#include "power/solver.hh"
#include "sim/logging.hh"
#include "sim/simulator.hh"
#include "sim/stats.hh"

using namespace capy;
using namespace capy::bench;

namespace
{

struct Point
{
    double capacitance;
    double mops;       ///< atomicity
    double chargeTime;  ///< recharge time from empty, s
};

/** Measure atomicity by letting the booted device compute until it
 *  browns out. */
Point
measure(double capacitance)
{
    Point p{capacitance, 0.0, 0.0};
    sim::Simulator simulator;
    power::PowerSystem::Spec spec;
    auto ps = std::make_unique<power::PowerSystem>(
        spec, std::make_unique<power::RegulatedSupply>(10e-3, 3.3));
    ps->addBank("b", power::parts::synthesize(power::CapTech::Ceramic,
                                              capacitance));
    dev::Device device(simulator, std::move(ps), dev::msp430fr5969(),
                       dev::Device::PowerMode::Intermittent);

    double boot_at = -1.0;
    double fail_at = -1.0;
    device.setHooks(
        {.onBoot =
             [&] {
                 if (boot_at >= 0.0)
                     return;  // only the first span counts
                 boot_at = simulator.now();
                 device.runWorkload(device.mcu().activePower, 1e9);
             },
         .onPowerFail =
             [&] {
                 if (fail_at < 0.0)
                     fail_at = simulator.now();
                 simulator.stop();
             },
         .onWorkloadDone = nullptr});
    device.start();
    simulator.runUntil(36000.0);
    if (boot_at < 0.0 || fail_at < 0.0)
        return p;
    p.chargeTime = boot_at;
    p.mops = (fail_at - boot_at) * device.mcu().opRate / 1e6;
    return p;
}

} // namespace

int
main()
{
    setQuiet(true);
    banner("Figure 3", "design space for energy buffer capacity");
    std::printf(
        "atomicity: longest ALU-op span before power failure\n"
        "MCU: MSP430FR5969 model (%.3g nJ/op effective)\n\n",
        dev::msp430fr5969().energyPerOp() * 1e9);

    std::vector<double> caps = {100e-6, 220e-6, 470e-6, 1e-3, 2.2e-3,
                                4.7e-3, 6.8e-3, 10e-3};
    std::vector<Point> points = apps::sweepPool().mapItems(
        caps, [](double c) { return measure(c); });

    double max_mops = points.back().mops;
    sim::Table t({"C (uF)", "atomicity (Mops)", "recharge (s)", ""});
    for (const auto &p : points) {
        t.addRow({sim::cell(p.capacitance * 1e6),
                  sim::cell(p.mops, 4), sim::cell(p.chargeTime, 3),
                  bar(p.mops, max_mops, 32)});
    }
    t.print();

    // A hypothetical task needing 1 Mops of atomicity (the paper's
    // dashed line): find the feasibility frontier.
    std::printf("\nhypothetical task requirement: 1 Mops\n");
    for (const auto &p : points) {
        std::printf("  C=%7.0f uF: %s\n", p.capacitance * 1e6,
                    p.mops < 1.0
                        ? "INFEASIBLE (insufficient energy storage)"
                        : p.chargeTime > 3.0 * points.front().chargeTime
                              ? "feasible but NOT REACTIVE "
                                "(overprovisioned)"
                              : "feasible");
    }

    bool monotone = true;
    for (std::size_t i = 1; i < points.size(); ++i)
        monotone &= points[i].mops > points[i - 1].mops;
    shapeCheck(monotone, "atomicity grows with capacitance");
    bool charge_monotone = true;
    for (std::size_t i = 1; i < points.size(); ++i)
        charge_monotone &= points[i].chargeTime > points[i - 1].chargeTime;
    shapeCheck(charge_monotone,
               "recharge time grows with capacitance (reactivity "
               "falls)");
    shapeCheck(points.back().mops >= 2.0 && points.back().mops <= 8.0,
               "atomicity at 10 mF lands in the paper's few-Mops range");
    shapeCheck(points.front().mops < 0.1,
               "atomicity at 100 uF is negligible, as in the paper");
    // Roughly linear: Mops per farad within 2x across the top decade.
    double d1 = points.back().mops / points.back().capacitance;
    double d2 = points[3].mops / points[3].capacitance;
    shapeCheck(d1 / d2 > 0.5 && d1 / d2 < 2.0,
               "atomicity is roughly proportional to capacitance");
    return finish();
}
