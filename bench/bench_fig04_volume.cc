/**
 * @file
 * Reproduces Fig. 4: provisioning a given atomicity requirement by
 * capacitor volume and technology.
 *
 * Stacks of ceramic X5R parts are compared against stacks of the
 * ultra-compact CPH3225A supercapacitor. The supercap's volumetric
 * density dwarfs ceramic, but its ~160-ohm per-part ESR limits the
 * extractable energy (and at one part even the ability to boot under
 * load) — which is why it is only usable at all behind the output
 * booster, and why its atomicity grows sublinearly at small counts.
 */

#include <cmath>
#include <cstdio>
#include <memory>
#include <vector>

#include "apps/experiment.hh"
#include "bench_util.hh"
#include "dev/device.hh"
#include "power/parts.hh"
#include "power/power_system.hh"
#include "sim/logging.hh"
#include "sim/simulator.hh"
#include "sim/stats.hh"

using namespace capy;
using namespace capy::bench;

namespace
{

struct Point
{
    double volume;  ///< mm^3
    double mops;
    bool bootable;
};

Point
measure(const power::CapacitorSpec &bank)
{
    Point p{bank.volume, 0.0, false};
    sim::Simulator simulator;
    power::PowerSystem::Spec spec;
    auto ps = std::make_unique<power::PowerSystem>(
        spec, std::make_unique<power::RegulatedSupply>(10e-3, 3.3));
    ps->addBank("b", bank);
    dev::Device device(simulator, std::move(ps), dev::msp430fr5969(),
                       dev::Device::PowerMode::Intermittent);

    double boot_at = -1.0;
    double fail_at = -1.0;
    device.setHooks(
        {.onBoot =
             [&] {
                 if (boot_at >= 0.0)
                     return;
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
    p.bootable = true;
    p.mops = (fail_at - boot_at) * device.mcu().opRate / 1e6;
    return p;
}

} // namespace

int
main()
{
    setQuiet(true);
    banner("Figure 4",
           "provisioning atomicity by capacitor volume and type");

    auto ceramic = power::parts::x5r100uF();
    auto supercap = power::parts::cph3225a();

    std::printf("parts: %s (%.1f uF, %.0f mm^3, %.3g ohm) vs "
                "%s (%.1f mF, %.1f mm^3, %.0f ohm)\n\n",
                ceramic.part.c_str(), ceramic.capacitance * 1e6,
                ceramic.volume, ceramic.esr, supercap.part.c_str(),
                supercap.capacitance * 1e3, supercap.volume,
                supercap.esr);

    sim::Table t({"tech", "parts", "volume (mm^3)", "C (mF)",
                  "ESR (ohm)", "atomicity (Mops)", "note"});
    // The tech x stack-size grid of boot-to-brownout simulations fans
    // out as one parallel batch; rows are emitted from the ordered
    // results, so the table is byte-identical at any CAPY_JOBS.
    const std::vector<int> cer_counts = {1, 2, 4, 8, 16, 32};
    const std::vector<int> sup_counts = {1, 2, 3, 4, 5};
    std::vector<power::CapacitorSpec> banks;
    for (int n : cer_counts)
        banks.push_back(ceramic.parallel(std::size_t(n)));
    for (int n : sup_counts)
        banks.push_back(supercap.parallel(std::size_t(n)));
    auto points = apps::sweepPool().mapItems(banks, measure);

    std::vector<Point> cer, sup;
    for (std::size_t i = 0; i < cer_counts.size(); ++i) {
        const Point &p = points[i];
        cer.push_back(p);
        t.addRow({"ceramic", sim::cell(cer_counts[i]),
                  sim::cell(p.volume, 4),
                  sim::cell(banks[i].capacitance * 1e3, 3),
                  sim::cell(banks[i].esr, 3), sim::cell(p.mops, 4),
                  p.bootable ? "" : "unbootable"});
    }
    for (std::size_t i = 0; i < sup_counts.size(); ++i) {
        std::size_t k = cer_counts.size() + i;
        const Point &p = points[k];
        sup.push_back(p);
        t.addRow({"EDLC", sim::cell(sup_counts[i]),
                  sim::cell(p.volume, 4),
                  sim::cell(banks[k].capacitance * 1e3, 3),
                  sim::cell(banks[k].esr, 3), sim::cell(p.mops, 4),
                  p.bootable ? "" : "unbootable (ESR droop)"});
    }
    t.print();

    // Observation 1: for comparable volume, the supercap stores far
    // more atomicity than ceramic (low ceramic density).
    // 4x CPH (28.8 mm^3) vs 32x ceramic (640 mm^3): supercap still
    // wins at <1/20 the volume.
    shapeCheck(sup[3].mops > cer.back().mops,
               "a smaller volume of supercapacitors provides more "
               "atomicity than a larger volume of ceramics");
    // Observation 2: diminishing returns per volume for the EDLC as
    // ESR stops dominating: Mops per mm^3 at small stacks exceeds the
    // gain expected from pure capacity scaling only once the droop
    // floor fades; check sublinearity at the top end.
    double per_vol_small = sup[1].mops / sup[1].volume;
    double per_vol_large = sup.back().mops / sup.back().volume;
    shapeCheck(std::abs(per_vol_large / per_vol_small - 1.0) < 0.6,
               "EDLC atomicity per volume approaches a constant "
               "(capacity-limited) once parallelism tames the ESR");
    // Observation 3 (from §2.2.2): very high per-part ESR strands
    // energy: the single-part EDLC extracts a smaller fraction of its
    // stored energy than the 5-part stack.
    double frac1 = sup[0].mops / (sup[0].volume);
    double frac5 = sup[4].mops / (sup[4].volume);
    shapeCheck(frac1 < frac5,
               "the single high-ESR supercap extracts less per volume "
               "than a parallel stack (droop floor)");
    return finish();
}
