#include "apps/capysat.hh"

#include <memory>
#include <optional>

#include "apps/experiment.hh"
#include "dev/mcu.hh"
#include "dev/peripheral.hh"
#include "dev/radio.hh"
#include "env/light.hh"
#include "power/bankswitch.hh"
#include "power/parts.hh"
#include "power/units.hh"
#include "rt/kernel.hh"
#include "sim/simulator.hh"

namespace capy::apps
{

using namespace capy::literals;
namespace parts = capy::power::parts;

namespace
{

/** Per-panel peak power of the satellite's body-mounted panels. */
constexpr double kSatPanelPower = 25e-3;

std::unique_ptr<power::PowerSystem>
satPowerSystem(const env::OrbitLight &orbit, double panel_share,
               const power::CapacitorSpec &bank,
               const char *bank_name)
{
    power::PowerSystem::Spec spec;
    // The diode splitter always connects the bank to the harvester;
    // there is no switched reconfiguration on the satellite.
    auto harvester = std::make_unique<power::SolarArray>(
        2, kSatPanelPower * panel_share, 2.5, orbit.illumination(),
        orbit.changePeriod());
    auto ps = std::make_unique<power::PowerSystem>(
        spec, std::move(harvester));
    ps->addBank(bank_name, bank);
    return ps;
}

} // namespace

CapySatResult
runCapySat(double orbits, std::uint64_t seed,
           const FaultSpec *faults)
{
    sim::Simulator simulator;
    env::OrbitLight orbit;
    sim::Rng rng(seed, 0x5a7);
    dev::Radio radio(dev::kicksatRadio());

    // Volume budget: ultra-compact CPH3225A EDLCs are the only
    // storage that fits (§6.6).
    // Parallel stacks also tame the 160-ohm per-cap ESR enough to
    // boot the MCUs and carry the 250 ms transmit burst.
    auto sample_bank = parts::cph3225a().parallel(3);
    auto comm_bank = parts::cph3225a().parallel(8);

    // Sampling MCU.
    auto ps_sample = satPowerSystem(orbit, 0.4, sample_bank, "sample");
    dev::Device mcu_sample(simulator, std::move(ps_sample),
                           dev::msp430fr5969(),
                           dev::Device::PowerMode::Intermittent);

    // Communication MCU.
    auto ps_comm = satPowerSystem(orbit, 0.6, comm_bank, "comm");
    dev::Device mcu_comm(simulator, std::move(ps_comm),
                         dev::cc2650(),
                         dev::Device::PowerMode::Intermittent);

    CapySatResult result;

    // Attitude sampling app: magnetometer + accelerometer +
    // gyroscope in one atomic sample, paced at 1 Hz.
    std::vector<dev::PeripheralSpec> sensors{
        dev::periph::magnetometer(), dev::periph::accelerometer(),
        dev::periph::gyroscope()};
    rt::App sample_app;
    rt::Task *sample = nullptr;
    sample = sample_app.addTask(
        "attitude-sample", 20_ms + dev::maxWarmup(sensors),
        dev::totalActivePower(sensors),
        [&](rt::Kernel &k) -> const rt::Task * {
            ++result.samples;
            if (!orbit.sunlit(k.now()))
                ++result.samplesInEclipse;
            return sample;
        },
        1.0 /* sleep pacing */);
    rt::Kernel kernel_sample(mcu_sample, sample_app);

    // Downlink app: one 1-byte beacon per cycle, 250 ms at high
    // current through the redundant encoding (§6.6).
    const auto sat_radio = dev::kicksatRadio();
    rt::App comm_app;
    rt::Task *beacon = nullptr;
    beacon = comm_app.addTask(
        "beacon", txDuration(sat_radio, 1), 0.0,
        [&](rt::Kernel &k) -> const rt::Task * {
            ++result.packets;
            if (radio.attemptDelivery(rng))
                ++result.packetsDelivered;
            if (!orbit.sunlit(k.now()))
                ++result.packetsInEclipse;
            return beacon;
        },
        10.0 /* beacon interval */);
    beacon->absolutePower = sat_radio.txPower;
    rt::Kernel kernel_comm(mcu_comm, comm_app);

    // Both MCUs share the supply bus: each injected failure strikes
    // both, and each MCU gets its own auditor.
    std::optional<FaultHarness> harness;
    if (faults) {
        harness.emplace({&mcu_sample, &mcu_comm}, *faults);
        harness->watchKernel(kernel_sample);
        harness->watchKernel(kernel_comm);
    }

    kernel_sample.start();
    kernel_comm.start();
    simulator.runUntil(orbits * orbit.spec().orbitPeriod);
    assertLedgerBalances(mcu_sample.powerSystem());
    assertLedgerBalances(mcu_comm.powerSystem());

    if (harness)
        result.faults = harness->finish();

    result.samplingMcu = mcu_sample.stats();
    result.commMcu = mcu_comm.stats();
    result.simEvents = simulator.eventsExecuted();
    // §6.6: the diode splitter matches storage to demand at ~20% of
    // the area of the general-purpose switch module.
    result.switchArea = power::SwitchSpec{}.area;
    result.splitterArea = 0.2 * result.switchArea;
    result.capacitorVolume =
        sample_bank.volume + comm_bank.volume;
    return result;
}

} // namespace capy::apps
