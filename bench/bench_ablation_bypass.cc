/**
 * @file
 * Ablation (§5.1): the input-booster bypass optimization. Without the
 * bypass, cold-starting a large capacitor crawls on the converter's
 * trickle; with the bypass diode the harvester charges the capacitors
 * directly until the converter can start. The paper observed at least
 * an order of magnitude reduction in charge time.
 */

#include <cmath>
#include <cstdio>
#include <memory>

#include "apps/experiment.hh"
#include "bench_util.hh"
#include "power/parts.hh"
#include "power/power_system.hh"
#include "power/solver.hh"
#include "sim/logging.hh"
#include "sim/stats.hh"

using namespace capy;
using namespace capy::bench;

namespace
{

struct ChargeTimes
{
    double coldStart;  ///< time to lift storage past the converter's
                       ///< cold-start threshold
    double full;       ///< time to the full charge target
};

ChargeTimes
chargeTime(const power::CapacitorSpec &bank, double harvest_w,
           bool bypass)
{
    power::PowerSystem::Spec spec;
    spec.input.bypassEnabled = bypass;
    power::PowerSystem ps(
        spec,
        std::make_unique<power::RegulatedSupply>(harvest_w, 3.3));
    ps.addBank("b", bank);
    return ChargeTimes{
        ps.timeToVoltage(spec.input.coldStartVoltage),
        ps.timeToFull(),
    };
}

} // namespace

int
main()
{
    setQuiet(true);
    banner("Section 5.1 ablation", "input booster bypass optimization");

    struct Case
    {
        const char *name;
        power::CapacitorSpec bank;
        double harvest;
    };
    Case cases[] = {
        {"TA large bank @ 0.84 mW",
         power::parallelCompose({power::parts::tant1000uF(),
                                 power::parts::edlc7_5mF()}),
         0.84e-3},
        {"GRC fixed bank @ 8 mW",
         power::parallelCompose({power::parts::x5r100uF().parallel(4),
                                 power::parts::tant330uF(),
                                 power::parts::edlc7_5mF().parallel(9)}),
         8e-3},
        {"small bank @ 8 mW", power::parts::x5r100uF().parallel(4),
         8e-3},
    };

    // Jobs 2i / 2i+1 are case i with/without the bypass.
    auto times =
        apps::sweepPool().map(2 * std::size(cases), [&](std::size_t i) {
            const Case &c = cases[i / 2];
            return chargeTime(c.bank, c.harvest, i % 2 == 0);
        });

    sim::Table t({"configuration", "cold start w/ bypass (s)",
                  "cold start w/o (s)", "cold-start speedup",
                  "full charge w/ (s)", "full charge w/o (s)",
                  "full speedup"});
    double min_cold = 1e9, min_full = 1e9;
    for (std::size_t ci = 0; ci < std::size(cases); ++ci) {
        const Case &c = cases[ci];
        const ChargeTimes &with = times[2 * ci];
        const ChargeTimes &without = times[2 * ci + 1];
        double cold_speedup = without.coldStart / with.coldStart;
        double full_speedup = without.full / with.full;
        min_cold = std::min(min_cold, cold_speedup);
        min_full = std::min(min_full, full_speedup);
        t.addRow({c.name, sim::cell(with.coldStart, 4),
                  sim::cell(without.coldStart, 4),
                  sim::cell(cold_speedup, 3) + "x",
                  sim::cell(with.full, 4), sim::cell(without.full, 4),
                  sim::cell(full_speedup, 3) + "x"});
    }
    t.print();

    shapeCheck(min_cold >= 10.0,
               "the bypass accelerates the cold-start phase by at "
               "least an order of magnitude (§5.1)");
    shapeCheck(min_full >= 2.0,
               "end-to-end charge time improves substantially too");
    return finish();
}
