/**
 * @file
 * The CapySat case study (§6.6): fly the two-MCU, supercapacitor-
 * powered nano-satellite for several orbits and report per-orbit
 * activity.
 *
 * Usage: capysat_mission [orbits]
 */

#include <cstdio>

#include "apps/capysat.hh"
#include "env/light.hh"
#include "sim/cli.hh"
#include "sim/logging.hh"
#include "sim/stats.hh"

using namespace capy;
using namespace capy::apps;

constexpr char kUsage[] = "usage: capysat_mission [orbits]\n";

int
main(int argc, char **argv)
{
    setQuiet(true);
    double orbits = argc > 1 ? sim::parseNumber(argv[1], kUsage) : 4.0;
    sim::requireAbove(orbits, 0.0, "orbits", kUsage);
    env::OrbitLight orbit;

    std::printf("CapySat: %.1f orbits of %.1f min (%.1f min eclipse "
                "each)\n\n",
                orbits, orbit.spec().orbitPeriod / 60.0,
                orbit.spec().eclipseDuration / 60.0);

    CapySatResult r = runCapySat(orbits, 7);

    sim::Table t({"metric", "total", "per orbit"});
    t.addRow({"attitude samples", sim::cell(r.samples),
              sim::cell(double(r.samples) / orbits, 4)});
    t.addRow({"downlink packets sent", sim::cell(r.packets),
              sim::cell(double(r.packets) / orbits, 4)});
    t.addRow({"packets received on Earth",
              sim::cell(r.packetsDelivered),
              sim::cell(double(r.packetsDelivered) / orbits, 4)});
    t.addRow({"samples in eclipse", sim::cell(r.samplesInEclipse),
              sim::cell(double(r.samplesInEclipse) / orbits, 4)});
    t.print();

    std::printf("\nhardware:\n");
    std::printf("  storage: %.1f mm^3 of CPH3225A supercapacitors "
                "(batteries are\n           disqualified by the "
                "volume and -40C requirements)\n",
                r.capacitorVolume);
    std::printf("  splitter: %.0f mm^2 vs %.0f mm^2 for a full "
                "bank-switch module (20%%)\n",
                r.splitterArea, r.switchArea);
    std::printf("  sampling MCU: %llu boots, %llu power failures\n",
                (unsigned long long)r.samplingMcu.boots,
                (unsigned long long)r.samplingMcu.powerFailures);
    std::printf("  comm MCU:     %llu boots, %llu power failures\n",
                (unsigned long long)r.commMcu.boots,
                (unsigned long long)r.commMcu.powerFailures);
    return 0;
}
