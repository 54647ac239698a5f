/**
 * @file
 * Trace-export demo: run the Fig. 2 scenario (15-sample series +
 * radio packet on a fixed bank) and export the storage voltage, the
 * operating/charging spans, and the per-task energy profile as CSV
 * files plus a gnuplot script.
 *
 * Usage: energy_trace [output_dir]
 */

#include <cstdio>
#include <fstream>
#include <memory>
#include <string>

#include "apps/boards.hh"
#include "dev/device.hh"
#include "dev/peripheral.hh"
#include "dev/radio.hh"
#include "power/parts.hh"
#include "power/units.hh"
#include "rt/channel.hh"
#include "rt/kernel.hh"
#include "sim/export.hh"
#include "sim/logging.hh"
#include "sim/simulator.hh"
#include "sim/trace.hh"

using namespace capy;
using namespace capy::literals;

int
main(int argc, char **argv)
{
    setQuiet(true);
    std::string dir = argc > 1 ? argv[1] : ".";

    sim::Simulator simulator;
    power::PowerSystem::Spec spec;
    auto ps = std::make_unique<power::PowerSystem>(
        spec, std::make_unique<power::RegulatedSupply>(
                  apps::grcHarvestPower(), 3.3));
    ps->addBank("fixed",
                power::parallelCompose(
                    {power::parts::x5r100uF().parallel(4),
                     power::parts::tant330uF(),
                     power::parts::edlc7_5mF().parallel(9)}));
    sim::TimeSeries volts("storage_V");
    ps->attachVoltageTrace(&volts);
    dev::Device device(simulator, std::move(ps), dev::msp430fr5969(),
                       dev::Device::PowerMode::Intermittent);
    sim::SpanTrace spans;
    device.attachSpanTrace(&spans);

    const auto tmp36 = dev::periph::tmp36();
    const auto ble = dev::bleRadio();
    dev::NvMemory fram;
    rt::Channel<int> count(&fram, 0);

    rt::App app;
    rt::Task *sense = nullptr;
    rt::Task *tx = nullptr;
    tx = app.addTask("radio_tx", txDuration(ble, 25), 0.0,
                     [&](rt::Kernel &) -> const rt::Task * {
                         count.set(0);
                         return sense;
                     });
    tx->absolutePower = ble.txPower;
    sense = app.addTask("sense", 10_ms, tmp36.activePower,
                        [&](rt::Kernel &) -> const rt::Task * {
                            count.set(count.get() + 1);
                            return count.get() >= 15 ? tx : sense;
                        });
    app.setEntry(sense);

    rt::Kernel kernel(device, app, &fram);
    kernel.start();
    simulator.runUntil(300.0);

    // --- exports ---
    std::string volts_csv = dir + "/fig2_voltage.csv";
    std::string spans_csv = dir + "/fig2_spans.csv";
    std::string plot = dir + "/fig2_voltage.gp";
    bool ok = sim::writeCsv(volts, volts_csv);
    ok &= sim::writeCsv(spans, spans_csv);
    {
        std::ofstream out(plot);
        out << sim::gnuplotScript(volts_csv,
                                  "Fig. 2: fixed-capacity execution",
                                  "storage voltage (V)");
        ok &= bool(out);
    }
    if (!ok) {
        std::fprintf(stderr, "failed to write CSVs under %s\n",
                     dir.c_str());
        return 1;
    }

    std::printf("wrote %s (%zu points), %s (%zu spans), %s\n",
                volts_csv.c_str(), volts.size(), spans_csv.c_str(),
                spans.spans().size(), plot.c_str());
    std::printf("\nper-task energy profile (300 s):\n");
    for (const auto &[name, use] : kernel.energyByTask()) {
        std::printf("  %-10s %6llu runs, %8.3f mJ spent, %6.3f mJ "
                    "wasted on %llu failed attempts\n",
                    name.c_str(),
                    (unsigned long long)use.completions,
                    use.railEnergy * 1e3, use.wastedEnergy * 1e3,
                    (unsigned long long)use.failedAttempts);
    }
    std::printf("\nplot with: gnuplot -p %s\n", plot.c_str());
    return 0;
}
