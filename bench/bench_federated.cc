/**
 * @file
 * Related-work comparison (§7): UFoP-style federated energy storage
 * vs Capybara's software-reconfigurable banks.
 *
 * Federation also avoids charging a worst-case buffer before useful
 * work, but it allocates energy to *hardware peripherals* at design
 * time. Two consequences reproduced here:
 *
 *  1. Stranded energy: when the harvester dies, energy sitting in the
 *     radio's dedicated capacitor cannot extend sensing. Capybara's
 *     runtime simply activates the big bank for the sensing mode and
 *     keeps sampling several times longer on the same total storage.
 *  2. Cascade starvation ("tragedy of the coulombs"): a sustained
 *     load on a high-priority node can starve every node behind it.
 */

#include <cstdio>
#include <memory>

#include "apps/experiment.hh"
#include "bench_util.hh"
#include "core/runtime.hh"
#include "dev/device.hh"
#include "power/federated.hh"
#include "power/parts.hh"
#include "rt/kernel.hh"
#include "sim/logging.hh"
#include "sim/simulator.hh"
#include "sim/stats.hh"

using namespace capy;
using namespace capy::bench;
using namespace capy::power;

namespace
{

/** Sensing cost per sample: 10 ms at board power + sensor. */
constexpr double kSamplePower = 22.2e-3;
constexpr double kSampleTime = 10e-3;

/**
 * Blackout endurance, federated: fully charged nodes, harvester dead;
 * sample from the MCU node until it browns out. The radio node's
 * energy is inaccessible by construction.
 */
struct BlackoutResult
{
    std::uint64_t samples = 0;
    double strandedEnergy = 0.0;
    double totalEnergy = 0.0;
};

BlackoutResult
federatedBlackout()
{
    BlackoutResult out;
    FederatedStorage::Spec spec;
    FederatedStorage fs(spec,
                        std::make_unique<RegulatedSupply>(0.0, 3.3));
    int mcu = fs.addNode("mcu", parts::x5r100uF().parallel(4));
    int radio = fs.addNode("radio",
                           parallelCompose({parts::tant1000uF(),
                                            parts::edlc7_5mF()}));
    fs.setNodeVoltageForTest(mcu, 3.0);
    fs.setNodeVoltageForTest(radio, 3.0);
    out.totalEnergy = fs.totalStoredEnergy();

    // Sample loop: pay one sample from the MCU node, stop at its
    // brown-out floor.
    sim::Time t = fs.time();
    for (;;) {
        fs.setNodeLoad(mcu, kSamplePower);
        if (fs.nodeVoltage(mcu) <= fs.nodeBrownoutVoltage(mcu) + 0.01)
            break;
        sim::Time burst = fs.timeToAnyBrownout();
        double span = std::min(burst, kSampleTime);
        fs.advanceTo(t + span);
        t = fs.time();
        if (span < kSampleTime)
            break;  // browned out mid-sample
        ++out.samples;
        fs.setNodeLoad(mcu, 0.0);
    }
    out.strandedEnergy = fs.node(radio).energy();
    return out;
}

/**
 * Blackout endurance, Capybara: same total storage, but the runtime
 * reconfigures the sensing mode to include the big bank once energy
 * is scarce — all stored energy serves the software's current need.
 */
BlackoutResult
capybaraBlackout()
{
    BlackoutResult out;
    sim::Simulator simulator;
    PowerSystem::Spec spec;
    auto ps = std::make_unique<PowerSystem>(
        spec, std::make_unique<RegulatedSupply>(0.0, 3.3));
    int small = ps->addBank("small", parts::x5r100uF().parallel(4));
    int big = ps->addSwitchedBank(
        "big",
        parallelCompose({parts::tant1000uF(), parts::edlc7_5mF()}),
        SwitchSpec{});
    (void)small;
    ps->setBankVoltageForTest(0, 3.0);
    ps->setBankVoltageForTest(1, 3.0);
    PowerSystem *psr = ps.get();
    dev::Device device(simulator, std::move(ps), dev::msp430fr5969(),
                       dev::Device::PowerMode::Intermittent);
    out.totalEnergy = psr->bank(0).energy() + psr->bank(1).energy();

    core::ModeRegistry modes;
    core::ModeId scavenge = modes.define("scavenge", {big});

    rt::App app;
    rt::Task *sample = nullptr;
    sample = app.addTask("sample", kSampleTime,
                         kSamplePower - dev::msp430fr5969().activePower,
                         [&](rt::Kernel &) -> const rt::Task * {
                             ++out.samples;
                             return sample;
                         });
    rt::Kernel kernel(device, app);
    core::Runtime runtime(kernel, modes, core::Policy::CapyP);
    // Energy-scarcity mode: sense with every bank connected.
    runtime.annotate(sample, core::Annotation::config(scavenge));
    runtime.install();
    kernel.start();
    simulator.runUntil(600.0);

    out.strandedEnergy = psr->activeEnergy();
    return out;
}

} // namespace

int
main()
{
    setQuiet(true);
    banner("Section 7 comparison",
           "federated (UFoP-style) vs reconfigurable storage");

    // --- Part 1: blackout endurance / stranded energy ---
    // The two blackout simulations are independent; run them as a
    // batch on the shared sweep pool (index-ordered results keep the
    // table byte-identical at any CAPY_JOBS).
    auto blackouts = capy::apps::sweepPool().map(2, [](std::size_t i) {
        return i == 0 ? federatedBlackout() : capybaraBlackout();
    });
    const BlackoutResult &fed = blackouts[0];
    const BlackoutResult &capy = blackouts[1];

    std::printf("blackout endurance (same total storage, harvester "
                "dead):\n");
    sim::Table t({"system", "samples before death",
                  "stranded energy (mJ)", "of total"});
    t.addRow({"federated (UFoP-style)", sim::cell(fed.samples),
              sim::cell(fed.strandedEnergy * 1e3, 4),
              sim::percentCell(fed.strandedEnergy / fed.totalEnergy)});
    t.addRow({"Capybara (reconfig to all banks)",
              sim::cell(capy.samples),
              sim::cell(capy.strandedEnergy * 1e3, 4),
              sim::percentCell(capy.strandedEnergy /
                               capy.totalEnergy)});
    t.print();

    // --- Part 2: cascade starvation ---
    std::printf("\ncascade starvation (sustained 5 mW load on the "
                "priority node, 1 mW harvest):\n");
    FederatedStorage::Spec fspec;
    FederatedStorage fs(fspec,
                        std::make_unique<RegulatedSupply>(1e-3, 3.3));
    int mcu = fs.addNode("mcu", parts::x5r100uF().parallel(4));
    int radio = fs.addNode("radio", parts::edlc7_5mF());
    fs.setNodeLoad(mcu, 5e-3);
    fs.advanceTo(600.0);
    std::printf("  after 600 s: mcu %.2f V, radio %.2f V\n",
                fs.nodeVoltage(mcu), fs.nodeVoltage(radio));

    shapeCheck(capy.samples > 3 * fed.samples,
               "reconfigurable storage extends sensing through a "
               "blackout by spending the radio bank's energy");
    shapeCheck(fed.strandedEnergy / fed.totalEnergy > 0.8,
               "federation strands the (large) radio capacitor's "
               "energy — it is wired to a peripheral, not a task");
    shapeCheck(capy.strandedEnergy / capy.totalEnergy < 0.2,
               "Capybara leaves only the unextractable residue");
    shapeCheck(fs.nodeVoltage(radio) < 0.3,
               "a loaded high-priority node starves the nodes behind "
               "it in the cascade");
    return finish();
}
