/**
 * @file
 * Ablation (§5.2): comparing the three capacity-reconfiguration
 * mechanisms on cold start — time from completely empty storage until
 * the device can first execute a small task.
 *
 *  - C control (Capybara): only the small default bank charges.
 *  - V_top control (DEBS-style): the single full-size capacitor
 *    charges to a lowered threshold — but all of it must come up past
 *    the output booster's start voltage.
 *  - V_bottom control: the full capacitor always charges to the top.
 */

#include <cmath>
#include <cstdio>
#include <memory>

#include "bench_util.hh"
#include "core/threshold_alt.hh"
#include "dev/device.hh"
#include "power/parts.hh"
#include "power/power_system.hh"
#include "sim/logging.hh"
#include "sim/runner.hh"
#include "sim/simulator.hh"
#include "sim/stats.hh"

using namespace capy;
using namespace capy::bench;

namespace
{

constexpr double kHarvest = 2e-3;

/** Small default bank and the combined large storage of the board. */
power::CapacitorSpec
smallBank()
{
    return power::parts::x5r100uF().parallel(4);
}

power::CapacitorSpec
fullStorage()
{
    return power::parallelCompose(
        {power::parts::x5r100uF().parallel(4),
         power::parts::edlc7_5mF().parallel(6)});
}

/** Time from empty until the first boot completes. */
double
coldStart(std::unique_ptr<power::PowerSystem> ps)
{
    sim::Simulator simulator;
    dev::Device device(simulator, std::move(ps), dev::msp430fr5969(),
                       dev::Device::PowerMode::Intermittent);
    double boot_at = -1.0;
    device.setHooks({.onBoot =
                         [&] {
                             boot_at = simulator.now();
                             simulator.stop();
                         },
                     .onPowerFail = nullptr,
                     .onWorkloadDone = nullptr});
    device.start();
    simulator.runUntil(36000.0);
    return boot_at;
}

} // namespace

int
main()
{
    setQuiet(true);
    banner("Section 5.2 ablation",
           "cold start by reconfiguration mechanism");
    std::printf("harvest: %.1f mW; task: any small workload\n\n",
                kHarvest * 1e3);

    power::PowerSystem::Spec spec;

    // Each mechanism builds its own power system inside its job; the
    // three cold starts are independent and run in parallel.
    // C control: switch array reverts NO -> only the small default
    // bank is connected for the cold start.
    auto run_c = [&spec] {
        auto ps = std::make_unique<power::PowerSystem>(
            spec,
            std::make_unique<power::RegulatedSupply>(kHarvest, 3.3));
        ps->addBank("small", smallBank());
        ps->addSwitchedBank("big",
                            power::parts::edlc7_5mF().parallel(6),
                            power::SwitchSpec{});
        return coldStart(std::move(ps));
    };

    // V_top control: one fixed large capacitor charged to a lowered
    // threshold with the same energy as the small bank's full charge.
    auto run_vtop = [&spec] {
        auto ps = std::make_unique<power::PowerSystem>(
            spec,
            std::make_unique<power::RegulatedSupply>(kHarvest, 3.3));
        ps->addBank("fixed", fullStorage());
        // Threshold for equal stored energy, but never below the
        // output booster's start voltage.
        double e_small = 0.5 * smallBank().capacitance * 3.0 * 3.0;
        double v =
            std::sqrt(2.0 * e_small / fullStorage().capacitance);
        v = std::max(v, spec.output.minInputStart + 0.1);
        {
            core::VtopController ctl(*ps);
            ctl.setThreshold(v);
        }
        return coldStart(std::move(ps));
    };

    // V_bottom control: the full capacitor must charge to the top.
    auto run_vbot = [&spec] {
        auto ps = std::make_unique<power::PowerSystem>(
            spec,
            std::make_unique<power::RegulatedSupply>(kHarvest, 3.3));
        ps->addBank("fixed", fullStorage());
        return coldStart(std::move(ps));
    };

    sim::BatchRunner pool;
    auto times = pool.map(3, [&](std::size_t i) {
        return i == 0 ? run_c() : i == 1 ? run_vtop() : run_vbot();
    });
    double t_c = times[0];
    double t_vtop = times[1];
    double t_vbot = times[2];

    sim::Table t({"mechanism", "cold start (s)", "vs C control"});
    t.addRow({"C control (switched banks)", sim::cell(t_c, 4), "1x"});
    t.addRow({"V_top threshold", sim::cell(t_vtop, 4),
              sim::cell(t_vtop / t_c, 3) + "x"});
    t.addRow({"V_bottom threshold", sim::cell(t_vbot, 4),
              sim::cell(t_vbot / t_c, 3) + "x"});
    t.print();

    shapeCheck(t_c > 0.0 && t_vtop > 0.0 && t_vbot > 0.0,
               "all three mechanisms eventually boot");
    shapeCheck(t_c < t_vtop,
               "C control cold-starts fastest: the small bank reaches "
               "a boostable voltage quickest (§5.2)");
    shapeCheck(t_vtop < t_vbot,
               "V_top control beats V_bottom, which always pays the "
               "full-capacity charge");
    shapeCheck(t_vbot / t_c > 10.0,
               "the worst mechanism is an order of magnitude slower "
               "to first execution");
    return finish();
}
