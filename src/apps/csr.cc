#include "apps/csr.hh"

#include <utility>

#include "dev/peripheral.hh"
#include "env/pendulum.hh"
#include "power/units.hh"
#include "rt/channel.hh"

namespace capy::apps
{

using namespace capy::literals;

RunMetrics
runCorrSense(core::Policy policy, const env::EventSchedule &schedule,
             std::uint64_t seed, double horizon,
             const FaultSpec *faults)
{
    sim::Simulator simulator;
    Board board = makeBoard(simulator, AppBoard::CorrSense, policy);
    env::Pendulum pendulum(schedule);
    env::Scoreboard sb(schedule);
    dev::Radio radio(dev::bleRadio());
    sim::Rng rng(seed, 0x3c);
    dev::NvMemory fram("fram");

    rt::Channel<int> magEvent(&fram, -1);
    rt::Channel<int> dataFresh(&fram, 0);

    rt::App app;
    const auto mag_spec = dev::periph::magnetometer();
    const auto prox = dev::periph::apds9960Proximity();
    const auto led_spec = dev::periph::led();
    const auto ble = dev::bleRadio();

    rt::Task *mag = nullptr;
    rt::Task *distance = nullptr;
    rt::Task *led = nullptr;
    rt::Task *radio_tx = nullptr;

    radio_tx = app.addTask(
        "radio_tx", txDuration(ble, 8), 0.0,
        [&](rt::Kernel &k) -> const rt::Task * {
            if (radio.attemptDelivery(rng)) {
                if (dataFresh.get())
                    sb.recordReport(magEvent.get(), k.now());
                else
                    sb.recordMisclassified(magEvent.get());
            }
            return mag;
        });
    // Host sleeps during the radio session.
    radio_tx->absolutePower = ble.txPower;

    led = app.addTask("led", led_spec.minActiveTime,
                      led_spec.activePower,
                      [&](rt::Kernel &) -> const rt::Task * {
                          return radio_tx;
                      });

    // 32 distance samples back-to-back on the proximity engine.
    const double dist_dur =
        prox.warmupTime + 32.0 * prox.minActiveTime;
    distance = app.addTask(
        "distance", dist_dur, prox.activePower,
        [&](rt::Kernel &k) -> const rt::Task * {
            // Distance data is only meaningful if the magnet was
            // still overhead during the sampling window.
            int still = pendulum.eventAt(k.now() - dist_dur / 2.0);
            dataFresh.set(still == magEvent.get() ? 1 : 0);
            return led;
        });

    mag = app.addTask(
        "magnetometer", 3_ms + mag_spec.warmupTime,
        mag_spec.activePower,
        [&](rt::Kernel &k) -> const rt::Task * {
            sim::Time t = k.now();
            sb.recordSample(t);
            if (pendulum.fieldStrength(t) > 0.5) {
                int ev = pendulum.eventAt(t);
                sb.recordDetection(ev);
                magEvent.set(ev);
                return distance;
            }
            return mag;
        });
    app.setEntry(mag);

    rt::Kernel kernel(*board.device, app, &fram);
    core::Runtime runtime(kernel, board.registry, policy, &fram);
    // §6.1.3: the magnetometer pre-charges the burst bank; tasks
    // (2)-(4) execute immediately and atomically after the event.
    runtime.annotate(mag, core::Annotation::preburst(board.bigMode,
                                                     board.smallMode));
    runtime.annotate(distance, core::Annotation::burst(board.bigMode));
    runtime.annotate(led, core::Annotation::burst(board.bigMode));
    runtime.annotate(radio_tx, core::Annotation::burst(board.bigMode));
    return runToHorizon(kernel, runtime, fram, std::move(sb), radio,
                        horizon, faults);
}

} // namespace capy::apps
