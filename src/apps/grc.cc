#include "apps/grc.hh"

#include <utility>

#include "dev/peripheral.hh"
#include "env/pendulum.hh"
#include "power/units.hh"
#include "rt/channel.hh"

namespace capy::apps
{

using namespace capy::literals;

RunMetrics
runGestureRemote(GrcVariant variant, core::Policy policy,
                 const env::EventSchedule &schedule, std::uint64_t seed,
                 double horizon, const FaultSpec *faults)
{
    sim::Simulator simulator;
    AppBoard board_kind = variant == GrcVariant::Fast
                              ? AppBoard::GestureFast
                              : AppBoard::GestureCompact;
    Board board = makeBoard(simulator, board_kind, policy);
    env::Pendulum pendulum(schedule);
    env::Scoreboard sb(schedule);
    dev::Radio radio(dev::bleRadio());
    sim::Rng rng(seed, 0x2b);
    dev::NvMemory fram("fram");

    rt::Channel<int> gestureEvent(&fram, -1);
    rt::Channel<int> gestureCorrect(&fram, 0);

    rt::App app;
    const auto photo_spec = dev::periph::phototransistor();
    const auto apds = dev::periph::apds9960Gesture();
    const auto ble = dev::bleRadio();
    const double tx_dur = txDuration(ble, 8);
    const double gest_dur = apds.warmupTime + apds.minActiveTime;

    rt::Task *photo = nullptr;
    rt::Task *gesture = nullptr;   // Compact only
    rt::Task *radio_tx = nullptr;  // Compact only
    rt::Task *gesture_tx = nullptr;  // Fast only

    if (variant == GrcVariant::Compact) {
        radio_tx = app.addTask(
            "radio_tx", tx_dur, 0.0,
            [&](rt::Kernel &k) -> const rt::Task * {
                int ev = gestureEvent.get();
                if (radio.attemptDelivery(rng)) {
                    if (gestureCorrect.get())
                        sb.recordReport(ev, k.now());
                    else
                        sb.recordMisclassified(ev);
                }
                return photo;
            });
        // Host sleeps during the radio session.
        radio_tx->absolutePower = ble.txPower;
        gesture = app.addTask(
            "gesture", gest_dur, apds.activePower,
            [&](rt::Kernel &k) -> const rt::Task * {
                int ev = -1;
                auto r = pendulum.senseGesture(
                    k.now() - apds.minActiveTime, apds.minActiveTime,
                    rng, &ev);
                using GR = env::Pendulum::GestureResult;
                if (r == GR::NoGesture)
                    return photo;
                gestureEvent.set(ev);
                gestureCorrect.set(r == GR::Decoded ? 1 : 0);
                return radio_tx;
            });
    } else {
        // Joined task: the gesture window occupies the head of the
        // task; the transmission the tail. Rail power is the
        // energy-equivalent average.
        double joined_dur = gest_dur + tx_dur;
        // Gesture head runs the MCU + APDS; radio tail runs the
        // radio with the host asleep. Rail power is the
        // energy-equivalent average, applied as an absolute power.
        double mcu_active = dev::msp430fr5969().activePower;
        double joined_power =
            ((mcu_active + apds.activePower) * gest_dur +
             ble.txPower * tx_dur) /
            joined_dur;
        gesture_tx = app.addTask(
            "gesture_tx", joined_dur, 0.0,
            // joined_dur is block-scoped: capture it by value.
            [&, joined_dur](rt::Kernel &k) -> const rt::Task * {
                int ev = -1;
                auto r = pendulum.senseGesture(
                    k.now() - joined_dur + apds.warmupTime,
                    apds.minActiveTime, rng, &ev);
                using GR = env::Pendulum::GestureResult;
                if (r == GR::NoGesture)
                    return photo;
                if (radio.attemptDelivery(rng)) {
                    if (r == GR::Decoded)
                        sb.recordReport(ev, k.now());
                    else
                        sb.recordMisclassified(ev);
                }
                return photo;
            });
        gesture_tx->absolutePower = joined_power;
    }

    photo = app.addTask(
        "photo", 1_ms + photo_spec.warmupTime, photo_spec.activePower,
        [&](rt::Kernel &k) -> const rt::Task * {
            sim::Time t = k.now();
            sb.recordSample(t);
            int ev = pendulum.eventAt(t);
            if (ev >= 0) {
                sb.recordDetection(ev);
                return variant == GrcVariant::Fast
                           ? gesture_tx
                           : gesture;
            }
            return photo;
        });
    app.setEntry(photo);

    rt::Kernel kernel(*board.device, app, &fram);
    core::Runtime runtime(kernel, board.registry, policy, &fram);
    // §6.1.1: the proximity task pre-charges the burst bank; the
    // gesture (and transmit) tasks are bursts with a hard temporal
    // constraint — they must run before the motion completes.
    runtime.annotate(photo, core::Annotation::preburst(
                                board.bigMode, board.smallMode));
    if (variant == GrcVariant::Fast) {
        runtime.annotate(gesture_tx,
                         core::Annotation::burst(board.bigMode));
    } else {
        runtime.annotate(gesture,
                         core::Annotation::burst(board.bigMode));
        runtime.annotate(radio_tx,
                         core::Annotation::burst(board.bigMode));
    }
    return runToHorizon(kernel, runtime, fram, std::move(sb), radio,
                        horizon, faults);
}

} // namespace capy::apps
