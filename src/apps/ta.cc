#include "apps/ta.hh"

#include <utility>

#include "dev/peripheral.hh"
#include "env/thermal.hh"
#include "power/units.hh"
#include "rt/channel.hh"

namespace capy::apps
{

using namespace capy::literals;

RunMetrics
runTempAlarm(core::Policy policy, const env::EventSchedule &schedule,
             std::uint64_t seed, double horizon,
             double precharge_penalty, const FaultSpec *faults)
{
    sim::Simulator simulator;
    Board board = makeBoard(simulator, AppBoard::TempAlarm, policy,
                            power::SwitchKind::NormallyOpen,
                            precharge_penalty);
    env::ThermalRig rig(schedule);
    env::Scoreboard sb(schedule);
    dev::Radio radio(dev::bleRadio());
    sim::Rng rng(seed, 0x1a);
    dev::NvMemory fram("fram");

    // Chain channels.
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
    // The host MCU sleeps while the radio subsystem transmits.
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

    rt::Kernel kernel(*board.device, app, &fram);
    core::Runtime runtime(kernel, board.registry, policy, &fram);
    // §6.1.2: one configuration per energy mode; Capy-P pre-charges
    // the big bank prior to the alarm burst.
    runtime.annotate(sense, core::Annotation::preburst(board.bigMode,
                                                       board.smallMode));
    runtime.annotate(radio_tx, core::Annotation::burst(board.bigMode));
    return runToHorizon(kernel, runtime, fram, std::move(sb), radio,
                        horizon, faults);
}

} // namespace capy::apps
