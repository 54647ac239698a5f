/**
 * @file
 * The energy-harvesting device: an MCU plus peripherals powered by a
 * reconfigurable PowerSystem, executing under the intermittent model
 * (§2): completely off while charging, boot when the buffer is full,
 * run until the buffer is empty.
 *
 * Device is the bridge between the event-driven simulator and the
 * continuous power model: it asks the power system for charge-complete
 * and brown-out crossing times and schedules simulator events exactly
 * there.
 */

#ifndef CAPY_DEV_DEVICE_HH
#define CAPY_DEV_DEVICE_HH

#include <functional>
#include <memory>

#include "dev/mcu.hh"
#include "power/power_system.hh"
#include "sim/simulator.hh"
#include "sim/trace.hh"

namespace capy::dev
{

/**
 * Intermittently-powered (or, for the baseline, continuously-powered)
 * device.
 */
class Device
{
  public:
    /** Supply discipline. */
    enum class PowerMode
    {
        Intermittent,  ///< harvested energy only; off while charging
        Continuous,    ///< bench supply: never browns out
    };

    /** Callbacks into the software layer. */
    struct Hooks
    {
        /** Device completed a (re)boot; software may run. */
        std::function<void()> onBoot;
        /** Power failed mid-operation; volatile state is lost. */
        std::function<void()> onPowerFail;
        /** The workload runWorkload() started completed; software
         *  may start the next one from here. */
        std::function<void()> onWorkloadDone;
    };

    /** How an injected power failure treats the storage buffer. */
    enum class FailureKind
    {
        /**
         * Supply collapse: the storage node is dumped to the brown-out
         * floor, so recovery requires a full recharge phase. The
         * physical-brownout equivalent and the default for crash
         * sweeps.
         */
        Collapse,
        /**
         * Transient glitch: the MCU resets (volatile state lost, same
         * software-visible failure) but the buffer keeps its charge,
         * so the device typically reboots immediately. Exercises
         * back-to-back failure recovery.
         */
        Glitch,
    };

    /**
     * Audit instrumentation. Unlike Hooks (the software under test),
     * an Observer watches from outside: onRailDown fires on a power
     * failure and on powerDown(), *after* the software's onPowerFail
     * hook, so it sees the exact non-volatile state that must survive
     * the outage, and onRailUp fires on boot completion *before* the
     * software's onBoot hook, so it sees the recovered state before
     * recovery code can repair it.
     */
    struct Observer
    {
        std::function<void()> onRailUp;
        std::function<void()> onRailDown;
    };

    /** Lifetime counters. */
    struct Stats
    {
        std::uint64_t boots = 0;
        std::uint64_t powerFailures = 0;
        /** Power failures that occurred during the boot sequence. */
        std::uint64_t bootFailures = 0;
        /** Subset of powerFailures forced by injectPowerFailure(). */
        std::uint64_t injectedFailures = 0;
        std::uint64_t workloadsCompleted = 0;
        std::uint64_t workloadsAborted = 0;
        double timeOn = 0.0;
        /** Completed charging spans' durations, summed in the order
         *  they closed, so timeCharging / chargeSpans is their mean. */
        double timeCharging = 0.0;
        /** Completed charging spans; one still open is not counted. */
        std::uint64_t chargeSpans = 0;
        /** Longest completed charging span, s. */
        double chargeSpanMax = 0.0;
    };

    Device(sim::Simulator &simulator,
           std::unique_ptr<power::PowerSystem> power_system,
           McuSpec mcu_spec, PowerMode power_mode);

    Device(const Device &) = delete;
    Device &operator=(const Device &) = delete;

    /** Install software hooks; must happen before start(). */
    void setHooks(Hooks hooks);

    /** Install audit instrumentation (may be set at any time). */
    void setObserver(Observer obs) { observer = std::move(obs); }

    /**
     * Record every boot ("boot"), operating ("on") and charging
     * ("charging") span into @p trace, which the caller owns and
     * keeps alive while the device runs. Without one the device keeps
     * no span log, only the sums in stats(). Must happen before
     * start().
     */
    void attachSpanTrace(sim::SpanTrace *trace);

    /** Begin operation (start charging, or boot if continuous). */
    void start();

    /** Whether software is currently running. */
    bool isOn() const { return state == State::On; }

    /** Whether the device is off and accumulating charge. */
    bool isCharging() const { return state == State::Charging; }

    sim::Simulator &simulator() { return sim; }
    const sim::Simulator &simulator() const { return sim; }
    power::PowerSystem &powerSystem() { return *ps; }
    const power::PowerSystem &powerSystem() const { return *ps; }
    const McuSpec &mcu() const { return mcuSpec; }
    PowerMode powerMode() const { return mode; }

    /**
     * Execute an atomic workload drawing @p rail_power watts for
     * @p duration seconds. When it completes, the onWorkloadDone hook
     * fires. If the buffer browns out first, or the workload is cut
     * short by powerDown() or an injected failure, the workload is
     * aborted: onWorkloadDone never fires for it, and the onPowerFail
     * hook fires instead (not for powerDown()).
     *
     * Called from onWorkloadDone, the new completion is not scheduled
     * at once: the device runs it in place when the simulator's rule
     * allows (sim::Simulator::claimInPlace) and schedules it
     * otherwise.
     * @pre isOn() and no workload in flight.
     */
    void runWorkload(double rail_power, double duration);

    /**
     * Voluntarily power down to recharge (the pause the runtime takes
     * after a reconfiguration, §4.1). The device boots again when the
     * buffer is full and the onBoot hook fires.
     * @pre isOn().
     */
    void powerDown();

    /**
     * Force a power failure right now (fault injection). The failure
     * goes through exactly the machinery a physical brown-out would:
     * any pending workload or boot completion is aborted, the rail
     * drops, the software's onPowerFail hook fires with volatile
     * state lost, and the device re-enters charging.
     *
     * @return true if a failure actually fired; false when the device
     *         is unpowered (charging/idle/dead — a supply fault is
     *         invisible) or on a continuous bench supply.
     */
    bool injectPowerFailure(FailureKind kind = FailureKind::Collapse);

    const Stats &stats() const { return devStats; }

    /** Power and elapsed time of the most recently aborted workload
     *  (valid inside/after an onPowerFail hook). */
    struct AbortedWorkload
    {
        double railPower = 0.0;
        double elapsed = 0.0;
    };
    const AbortedWorkload &lastAbortedWorkload() const
    {
        return lastAborted;
    }

  private:
    enum class State
    {
        Idle,      ///< before start()
        Charging,  ///< off, accumulating energy
        Booting,   ///< rail up, boot sequence running
        On,        ///< software executing
        Dead,      ///< provably unable to ever boot
    };

    /** The activity span the device is in. */
    enum class SpanKind
    {
        None,      ///< before start()
        Boot,
        On,
        Charging,
    };

    /** What the device's one pending event does when it fires. */
    enum class Pending
    {
        BootDone,         ///< onBootDone()
        ChargeWake,       ///< onChargeWake()
        BootBrownOut,     ///< failPower(true)
        RunBrownOut,      ///< failPower(false)
        WorkloadDone,     ///< completeWorkloads()
    };

    /** Schedule the pending event as @p kind at absolute time @p at. */
    void schedulePending(Pending kind, sim::Time at);
    void onPending();

    void enterCharging();
    void scheduleChargeWake();
    void onChargeWake();
    void beginBoot();
    void onBootDone();
    /** Complete the workload, then every completion it chains that
     *  the simulator lets run in place. */
    void completeWorkloads();
    /** Resolve the in-flight workload and fire onWorkloadDone. */
    void finishWorkload();
    /** Schedule the in-flight workload's completion at @p t_end, or
     *  defer it to completeWorkloads()'s loop inside a completion. */
    void completeAt(sim::Time t_end);
    void failPower(bool during_boot);
    /** Close the open span and open a @p kind span now. */
    void transitionSpan(SpanKind kind);
    /** Add the open span to the stats (and any attached trace). */
    void closeSpan();

    sim::Simulator &sim;
    std::unique_ptr<power::PowerSystem> ps;
    McuSpec mcuSpec;
    PowerMode mode;
    Hooks hooks;
    Observer observer;
    State state = State::Idle;
    /** The device's one pending event (a boot, charge wake, brown-out
     *  or workload completion) and what it does; destroying the
     *  device cancels it. */
    sim::Event pending;
    Pending pendingKind = Pending::BootDone;
    // The flags share pendingKind's padding.
    /** A workload is in flight (runWorkload scheduled, not resolved). */
    bool workloadActive = false;
    bool warnedStuck = false;
    /** finishWorkload() is running the onWorkloadDone hook. */
    bool inCompletion = false;
    /** The hook started a workload whose completion, at
     *  deferredEnd, is neither scheduled nor claimed yet; any abort
     *  or scheduled event clears it. */
    bool completionDeferred = false;
    sim::Time deferredEnd = 0.0;
    Stats devStats;
    SpanKind spanKind = SpanKind::None;
    sim::Time spanStart = 0.0;
    sim::SpanTrace *spanTrace = nullptr;
    double workloadPower = 0.0;
    sim::Time workloadStart = 0.0;
    AbortedWorkload lastAborted;
};

} // namespace capy::dev

#endif // CAPY_DEV_DEVICE_HH
