/**
 * @file
 * Provisioning tool (§3, §6.1): given an application's tasks, find
 * the capacitor bank each energy mode needs — both analytically (with
 * derating) and by the paper's empirical method of running the task
 * on progressively larger banks until it completes.
 *
 * Usage: provision_tool [harvest_mW]
 */

#include <cstdio>

#include "core/allocate.hh"
#include "core/provision.hh"
#include "dev/peripheral.hh"
#include "dev/radio.hh"
#include "power/parts.hh"
#include "power/units.hh"
#include "sim/cli.hh"
#include "sim/logging.hh"
#include "sim/stats.hh"

using namespace capy;
using namespace capy::core;
using namespace capy::literals;

constexpr char kUsage[] = "usage: provision_tool [harvest_mW]\n";

int
main(int argc, char **argv)
{
    setQuiet(true);
    double harvest_mw = argc > 1 ? sim::parseNumber(argv[1], kUsage) : 8.0;
    sim::requireAbove(harvest_mw, 0.0, "harvest_mW", kUsage);
    double harvest = harvest_mw * 1e-3;
    auto mcu = dev::msp430fr5969();
    const auto ble = dev::bleRadio();
    const auto apds = dev::periph::apds9960Gesture();

    std::printf("provisioning at %.1f mW harvest, MCU %s "
                "(%.1f mW active)\n\n",
                harvest * 1e3, mcu.name.c_str(),
                mcu.activePower * 1e3);

    struct Candidate
    {
        const char *name;
        rt::Task task;
    };
    Candidate tasks[] = {
        {"temperature sample",
         rt::Task{"sense", 10_ms, 0.2_mW, 0.0, nullptr, 0.0}},
        {"gesture window",
         rt::Task{"gesture", apds.warmupTime + apds.minActiveTime,
                  apds.activePower, 0.0, nullptr, 0.0}},
        {"BLE alarm packet (25 B)",
         rt::Task{"radio_tx", txDuration(ble, 25), 0.0, ble.txPower,
                  nullptr, 0.0}},
    };

    power::PowerSystem::Spec spec;
    sim::Table t({"task", "rail energy (mJ)", "analytic C (uF)",
                  "trial result", "trial C (uF)",
                  "first charge (s)"});
    for (const auto &c : tasks) {
        TaskEnergy e = measureTaskEnergy(c.task, mcu);
        double analytic = requiredCapacitance(
            e, spec, power::parts::x5r100uF(), 1.2);
        ProvisionResult trial = provisionByTrial(
            c.task, mcu, spec, power::parts::tant1000uF(), harvest,
            64);
        t.addRow({c.name, sim::cell(e.railEnergy() * 1e3, 4),
                  sim::cell(analytic * 1e6, 4),
                  trial.feasible
                      ? strfmt("%d x 1000 uF", trial.unitCount)
                      : "infeasible",
                  trial.feasible ? sim::cell(trial.capacitance * 1e6)
                                 : "-",
                  trial.feasible && trial.chargeTime >= 0
                      ? sim::cell(trial.chargeTime, 3)
                      : "-"});
    }
    t.print();

    std::printf(
        "\nThe analytic column solves E_stored(V_top..V_brownout) * "
        "eta >= E_task\nwith 1.2x derating; the trial column "
        "replicates the paper's procedure:\nrun the task while "
        "progressively increasing the capacity until it\ncompletes "
        "(§6.1). The two should agree within a unit or two.\n");

    // --- Automatic bank allocation (§8 future work) ---
    std::printf("\nautomatic bank allocation across the whole part "
                "catalog:\n");
    std::vector<ModeRequirement> modes{
        ModeRequirement{"sense",
                        measureTaskEnergy(tasks[0].task, mcu), true,
                        10.0},
        ModeRequirement{"gesture",
                        measureTaskEnergy(tasks[1].task, mcu), true,
                        30.0},
        ModeRequirement{"radio",
                        measureTaskEnergy(tasks[2].task, mcu), false},
    };
    auto plan = allocateBanks(modes, spec, power::parts::all(),
                              harvest);
    if (!plan.feasible) {
        std::printf("  no feasible allocation found\n");
        return 1;
    }
    sim::Table alloc({"mode", "bank", "parts", "active C (uF)",
                      "est. recharge (s)"});
    for (std::size_t i = 0; i < plan.banks.size(); ++i) {
        const auto &b = plan.banks[i];
        alloc.addRow({b.modeName,
                      b.hardwired ? "base (hard-wired)" : "switched",
                      b.unitCount ? strfmt("%d x %s", b.unitCount,
                                           b.unit.part.c_str())
                                  : "(covered by base)",
                      sim::cell(plan.activeCapacitance(i) * 1e6, 4),
                      sim::cell(b.chargeTime, 3)});
    }
    alloc.print();
    bool ok = verifyAllocation(plan, modes, spec, harvest);
    std::printf("  total capacitor volume: %.0f mm^3; plan verified "
                "by simulation: %s\n",
                plan.totalVolume, ok ? "yes" : "NO");
    return ok ? 0 : 1;
}
