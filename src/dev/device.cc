#include "dev/device.hh"

#include <algorithm>
#include <cmath>

#include "power/solver.hh"
#include "sim/logging.hh"

namespace capy::dev
{

namespace
{

/** Margin by which the brown-out must precede completion to abort. */
constexpr double kRaceTol = 1e-9;

} // namespace

Device::Device(sim::Simulator &simulator,
               std::unique_ptr<power::PowerSystem> power_system,
               McuSpec mcu_spec, PowerMode power_mode)
    : sim(simulator), ps(std::move(power_system)),
      mcuSpec(std::move(mcu_spec)), mode(power_mode),
      pending([](void *dev) { static_cast<Device *>(dev)->onPending(); },
              this)
{
    capy_assert(ps != nullptr, "device needs a power system");
}

void
Device::setHooks(Hooks h)
{
    capy_assert(state == State::Idle, "hooks must be set before start()");
    hooks = std::move(h);
}

void
Device::schedulePending(Pending kind, sim::Time at)
{
    completionDeferred = false;
    pendingKind = kind;
    sim.scheduleAt(at, pending);
}

void
Device::onPending()
{
    switch (pendingKind) {
      case Pending::BootDone:
        onBootDone();
        break;
      case Pending::ChargeWake:
        onChargeWake();
        break;
      case Pending::BootBrownOut:
        failPower(true);
        break;
      case Pending::RunBrownOut:
        failPower(false);
        break;
      case Pending::WorkloadDone:
        completeWorkloads();
        break;
    }
}

void
Device::attachSpanTrace(sim::SpanTrace *trace)
{
    capy_assert(state == State::Idle,
                "a span trace must be attached before start()");
    spanTrace = trace;
}

void
Device::transitionSpan(SpanKind kind)
{
    // The labels an attached trace records, by SpanKind.
    static constexpr const char *kLabels[] = {"", "boot", "on",
                                              "charging"};
    closeSpan();
    spanKind = kind;
    spanStart = sim.now();
    if (spanTrace)
        spanTrace->open(spanStart, kLabels[int(kind)]);
}

void
Device::closeSpan()
{
    double dur = sim.now() - spanStart;
    switch (spanKind) {
      case SpanKind::None:
        return;
      case SpanKind::Boot:
        break;
      case SpanKind::On:
        devStats.timeOn += dur;
        break;
      case SpanKind::Charging:
        devStats.timeCharging += dur;
        ++devStats.chargeSpans;
        devStats.chargeSpanMax = std::max(devStats.chargeSpanMax, dur);
        break;
    }
    if (spanTrace)
        spanTrace->close(sim.now());
}

void
Device::start()
{
    capy_assert(state == State::Idle, "device already started");
    if (mode == PowerMode::Continuous) {
        // Bench supply: the rail is always available.
        state = State::Booting;
        transitionSpan(SpanKind::Boot);
        schedulePending(Pending::BootDone, sim.now() + mcuSpec.bootTime);
        return;
    }
    enterCharging();
}

void
Device::enterCharging()
{
    state = State::Charging;
    ps->advanceTo(sim.now());
    ps->setRailEnabled(false);
    transitionSpan(SpanKind::Charging);
    scheduleChargeWake();
}

void
Device::scheduleChargeWake()
{
    ps->advanceTo(sim.now());
    sim::Time t_full = ps->timeToFull();
    sim::Time latch_exp = ps->nextLatchExpiry();  // absolute

    sim::Time wake = power::kNever;
    if (std::isfinite(t_full))
        wake = sim.now() + t_full;
    if (std::isfinite(latch_exp)) {
        // A reversion changes the active bank set; re-evaluate just
        // after it takes effect.
        wake = std::min(wake, latch_exp + 1e-9);
    }
    if (!std::isfinite(wake)) {
        if (!warnedStuck) {
            warnedStuck = true;
            capy_warn("device can never charge to full "
                      "(V=%.3g of %.3g, harvest insufficient); "
                      "it stays off forever",
                      ps->storageVoltage(), ps->topVoltage());
        }
        state = State::Dead;
        return;
    }
    schedulePending(Pending::ChargeWake, wake);
}

void
Device::onChargeWake()
{
    ps->advanceTo(sim.now());
    double v = ps->storageVoltage();
    double v_start = ps->startupVoltage(mcuSpec.activePower);
    if (ps->isFull()) {
        if (v + 1e-6 >= v_start) {
            beginBoot();
            return;
        }
        // Full but unable to start the output booster under load:
        // a mis-provisioned design (e.g. one ultra-high-ESR
        // supercapacitor, §2.2.2).
        if (!warnedStuck) {
            warnedStuck = true;
            capy_warn("buffer full at %.3g V but the output booster "
                      "needs %.3g V under boot load; device is "
                      "unbootable",
                      v, v_start);
        }
        state = State::Dead;
        return;
    }
    scheduleChargeWake();
}

void
Device::beginBoot()
{
    state = State::Booting;
    ps->advanceTo(sim.now());
    ps->setRailEnabled(true);
    transitionSpan(SpanKind::Boot);

    // One walk: the brown-out instant, or the end state onBootDone()'s
    // advance commits.
    sim::Time t_bo =
        ps->runLoad(mcuSpec.activePower, sim.now() + mcuSpec.bootTime);
    if (t_bo < mcuSpec.bootTime - kRaceTol) {
        schedulePending(Pending::BootBrownOut, sim.now() + t_bo);
        return;
    }
    schedulePending(Pending::BootDone, sim.now() + mcuSpec.bootTime);
}

void
Device::onBootDone()
{
    state = State::On;
    ++devStats.boots;
    if (mode == PowerMode::Intermittent) {
        ps->advanceTo(sim.now());
        ps->setRailLoad(mcuSpec.activePower);
    }
    transitionSpan(SpanKind::On);
    if (observer.onRailUp)
        observer.onRailUp();
    if (hooks.onBoot)
        hooks.onBoot();
}

void
Device::runWorkload(double rail_power, double duration)
{
    capy_assert(state == State::On,
                "runWorkload while the device is not on");
    capy_assert(!workloadActive,
                "runWorkload while another workload is in flight");
    capy_assert(rail_power >= 0.0 && duration >= 0.0,
                "bad workload (P=%g, d=%g)", rail_power, duration);

    workloadPower = rail_power;
    workloadStart = sim.now();
    workloadActive = true;

    sim::Time t_end = sim.now() + duration;
    if (mode == PowerMode::Continuous) {
        completeAt(t_end);
        return;
    }

    // The last event usually left the power system at this instant
    // (a completion or boot advances it), so there is nothing to walk.
    if (ps->time() != sim.now())
        ps->advanceTo(sim.now());
    // One walk: the brown-out instant, or the end state
    // finishWorkload()'s advance commits.
    sim::Time t_bo = ps->runLoad(rail_power, t_end);
    if (t_bo < duration - kRaceTol) {
        ++devStats.workloadsAborted;
        schedulePending(Pending::RunBrownOut, sim.now() + t_bo);
        return;
    }
    completeAt(t_end);
}

void
Device::completeAt(sim::Time t_end)
{
    if (inCompletion) {
        completionDeferred = true;
        deferredEnd = t_end;
        return;
    }
    schedulePending(Pending::WorkloadDone, t_end);
}

void
Device::completeWorkloads()
{
    // A loop, not recursion: each round completes one workload, and a
    // completion the simulator lets run in place is the next round.
    for (;;) {
        finishWorkload();
        if (!completionDeferred)
            return;
        sim.closeEvent();
        // The post-event hook may have failed the device, which
        // aborted the deferred workload.
        if (!completionDeferred)
            return;
        if (!sim.claimInPlace(deferredEnd)) {
            schedulePending(Pending::WorkloadDone, deferredEnd);
            return;
        }
        completionDeferred = false;
    }
}

void
Device::finishWorkload()
{
    workloadActive = false;
    if (mode == PowerMode::Intermittent) {
        ps->advanceTo(sim.now());
        // Back to the kernel's baseline compute draw between
        // workloads.
        ps->setRailLoad(mcuSpec.activePower);
    }
    ++devStats.workloadsCompleted;
    inCompletion = true;
    if (hooks.onWorkloadDone)
        hooks.onWorkloadDone();
    inCompletion = false;
}

void
Device::failPower(bool during_boot)
{
    workloadActive = false;
    completionDeferred = false;
    ++devStats.powerFailures;
    if (!during_boot) {
        lastAborted = AbortedWorkload{workloadPower,
                                      sim.now() - workloadStart};
    }
    if (during_boot)
        ++devStats.bootFailures;
    ps->advanceTo(sim.now());
    ps->setRailEnabled(false);
    if (hooks.onPowerFail)
        hooks.onPowerFail();
    // Audit instrumentation runs after the software hook so it sees
    // the exact state the outage leaves behind.
    if (observer.onRailDown)
        observer.onRailDown();
    if (mode == PowerMode::Continuous) {
        capy_panic("continuous-power device cannot brown out");
    }
    enterCharging();
}

bool
Device::injectPowerFailure(FailureKind kind)
{
    if (mode == PowerMode::Continuous)
        return false;
    if (state != State::On && state != State::Booting)
        return false;  // a supply fault is invisible to an off device
    bool during_boot = (state == State::Booting);
    // A pending brown-out's abort was already accounted when the
    // physics predicted it.
    bool physics_claimed_abort =
        pending.scheduled() && (pendingKind == Pending::BootBrownOut ||
                                pendingKind == Pending::RunBrownOut);
    sim.cancel(pending);
    if (!during_boot) {
        if (workloadActive) {
            // The physics pre-counts an abort when it predicts one at
            // schedule time; only count here if the workload would
            // otherwise have completed.
            if (!physics_claimed_abort)
                ++devStats.workloadsAborted;
        } else {
            // Failure between workloads: the aborted "workload" is
            // the kernel's baseline draw with zero progress lost.
            workloadPower = ps->railLoad();
            workloadStart = sim.now();
        }
    }
    ++devStats.injectedFailures;
    ps->advanceTo(sim.now());
    if (kind == FailureKind::Collapse)
        ps->collapseToBrownout();
    failPower(during_boot);
    return true;
}

void
Device::powerDown()
{
    capy_assert(state == State::On,
                "powerDown while the device is not on");
    sim.cancel(pending);
    workloadActive = false;
    completionDeferred = false;
    if (observer.onRailDown)
        observer.onRailDown();
    if (mode == PowerMode::Continuous) {
        // A continuously-powered board "recharges" instantly: reboot.
        state = State::Booting;
        transitionSpan(SpanKind::Boot);
        schedulePending(Pending::BootDone, sim.now() + mcuSpec.bootTime);
        return;
    }
    enterCharging();
}

} // namespace capy::dev
