#include "core/runtime.hh"

#include <algorithm>

#include "power/power_system.hh"
#include "sim/logging.hh"

namespace capy::core
{

const char *
policyName(Policy policy)
{
    switch (policy) {
      case Policy::Continuous:
        return "Pwr";
      case Policy::Fixed:
        return "Fixed";
      case Policy::CapyR:
        return "Capy-R";
      case Policy::CapyP:
        return "Capy-P";
    }
    capy_panic("unknown Policy %d", static_cast<int>(policy));
}

Runtime::Runtime(rt::Kernel &kernel_ref, ModeRegistry registry_in,
                 Policy policy, dev::NvMemory *nv)
    : kernel(kernel_ref), registry(std::move(registry_in)),
      activePolicy(policy), nvPbCharging(nv, 0),
      nvBelievedMode(nv, kNoMode), nvBurstAttempt(nv, kNoBurst)
{}

void
Runtime::annotate(const rt::Task *task, Annotation ann)
{
    capy_assert(task != nullptr, "annotate(nullptr)");
    // The gate reads the table resolved at install(); a later
    // annotation would be silently ignored.
    capy_assert(!installed, "annotate('%s') after install()",
                task->name.c_str());
    const rt::App &app = kernel.app();
    capy_assert(app.taskAt(task->index) == task,
                "annotated task '%s' is not one of the kernel's app",
                task->name.c_str());
    if (ann.kind == AnnKind::Config || ann.kind == AnnKind::Burst) {
        capy_assert(ann.mode != kNoMode, "%s needs a mode",
                    annKindName(ann.kind));
    }
    if (ann.kind == AnnKind::Preburst) {
        capy_assert(ann.mode != kNoMode && ann.burstMode != kNoMode,
                    "preburst needs bmode and emode");
    }
    if (annotations.size() < app.taskCount())
        annotations.resize(app.taskCount());
    annotations[task->index] = ann;
}

void
Runtime::install()
{
    capy_assert(!installed, "runtime already installed");
    installed = true;
    annotations.resize(kernel.app().taskCount());
    bool annotated = false;
    for (Annotation &ann : annotations) {
        ann = effectiveAnnotation(ann);
        annotated = annotated || ann.kind != AnnKind::None;
    }
    // With every task unannotated (Pwr, Fixed) the gate would only
    // touch NV cells that no annotation reads: install none.
    if (annotated)
        kernel.setPreTaskGate(
            [this](const rt::Task &task) { return gate(task); });
}

Annotation
Runtime::effectiveAnnotation(const Annotation &ann) const
{
    switch (activePolicy) {
      case Policy::Continuous:
      case Policy::Fixed:
        // These systems have no reconfiguration capability; the
        // annotations compile away.
        return Annotation{};
      case Policy::CapyR:
        // Capy-R has no burst support (§6): bursts recharge on the
        // critical path; prebursts degrade to configs of the
        // execution mode.
        if (ann.kind == AnnKind::Burst || ann.kind == AnnKind::Preburst)
            return Annotation::config(ann.mode);
        return ann;
      case Policy::CapyP:
        return ann;
    }
    capy_panic("unknown Policy");
}

bool
Runtime::gate(const rt::Task &task)
{
    capy_assert(task.index < annotations.size(),
                "task '%s' added after install()", task.name.c_str());
    const Annotation ann = annotations[task.index];

    // On the first gate after any boot, forget the believed hardware
    // configuration: a power failure may have outlived the latches.
    std::uint64_t boots = kernel.device().stats().boots;
    if (boots != lastSeenBoots) {
        lastSeenBoots = boots;
        nvBelievedMode.set(kNoMode);
    }

    // Leaving a burst task behind clears its retry flag.
    if (nvBurstAttempt.get() != kNoBurst &&
        nvBurstAttempt.get() != task.index) {
        nvBurstAttempt.set(kNoBurst);
    }

    switch (ann.kind) {
      case AnnKind::None:
        return true;
      case AnnKind::Config:
        return handleConfig(ann.mode);
      case AnnKind::Burst:
        return handleBurst(task, ann.mode);
      case AnnKind::Preburst:
        return handlePreburst(ann);
    }
    capy_panic("unknown AnnKind");
}

bool
Runtime::handleConfig(ModeId mode)
{
    auto &ps = kernel.device().powerSystem();
    // When the believed configuration already matches, the task runs
    // on whatever charge remains — the intermittent model executes
    // until the buffer is empty (§2). Only a *re*configuration
    // charges the newly configured buffer before executing (§4.1).
    if (nvBelievedMode.get() == mode)
        return true;
    ps.clearChargeCeiling();
    applyMode(mode);
    nvBelievedMode.set(mode);
    if (!bufferReady())
        return parkToCharge();
    return true;
}

bool
Runtime::handleBurst(const rt::Task &task, ModeId mode)
{
    auto &ps = kernel.device().powerSystem();
    ps.clearChargeCeiling();

    if (nvBurstAttempt.get() == task.index) {
        // The previous attempt of this burst power-failed: the
        // pre-charged energy was insufficient (provisioning is for
        // the average case, §6.3). Fall back to charging fully on
        // the critical path.
        ++rtStats.burstRecharges;
        applyMode(mode);
        nvBelievedMode.set(mode);
        if (!bufferReady())
            return parkToCharge();
        return true;
    }

    // Normal burst: re-activate the banks charged ahead of time and
    // execute immediately, without a recharge pause.
    applyMode(mode);
    nvBelievedMode.set(mode);
    ++rtStats.burstActivations;
    nvBurstAttempt.set(static_cast<std::uint32_t>(task.index));
    return true;
}

bool
Runtime::handlePreburst(const Annotation &ann)
{
    auto &ps = kernel.device().powerSystem();

    // Phase A: ensure the burst banks hold the (penalized) pre-charge
    // ceiling. The banks' retained charge is itself the non-volatile
    // phase indicator: once they hold the ceiling, phase A is done no
    // matter how many power cycles interleaved.
    double ceiling = prechargeCeiling();
    if (!banksHold(ann.burstMode, ceiling - kPrechargeMargin)) {
        applyMode(ann.burstMode);
        nvBelievedMode.set(ann.burstMode);
        ps.setChargeCeiling(ceiling);
        if (!bufferReady()) {
            nvPbCharging.set(1);
            return parkToCharge();
        }
        ++rtStats.prechargePhases;
        nvPbCharging.set(0);
    } else if (nvPbCharging.get() != 0) {
        // The park we took to charge the burst banks just finished.
        ++rtStats.prechargePhases;
        nvPbCharging.set(0);
    } else {
        // Banks still charged from an earlier pre-charge: skip the
        // pause entirely.
        ++rtStats.prechargeSkips;
    }

    // Phase B: deactivate the burst banks (they retain their charge)
    // and charge the execution mode — with the same only-pause-on-
    // reconfiguration rule as config tasks.
    if (nvBelievedMode.get() == ann.mode)
        return true;
    ps.clearChargeCeiling();
    applyMode(ann.mode);
    nvBelievedMode.set(ann.mode);
    if (!bufferReady())
        return parkToCharge();
    return true;
}

bool
Runtime::bufferReady() const
{
    auto &device = kernel.device();
    const auto &ps = device.powerSystem();
    double top = ps.topVoltage();
    double e_top =
        0.5 * ps.activeCapacitance() * top * top;
    double boot_energy =
        power::storageDrawPower(ps.systemSpec().output,
                                device.mcu().activePower) *
        device.mcu().bootTime;
    return ps.activeEnergy() >= e_top - kReadyBootMargin * boot_energy;
}

void
Runtime::applyMode(ModeId mode)
{
    auto &ps = kernel.device().powerSystem();
    const std::vector<int> &want = registry.banks(mode);
    for (int i = 0; i < ps.numBanks(); ++i) {
        if (ps.bankSwitch(i) == nullptr)
            continue;  // hard-wired
        bool desired =
            std::find(want.begin(), want.end(), i) != want.end();
        if (ps.bankActive(i) != desired)
            ++rtStats.reconfigurations;
        // GPIO writes are idempotent; the runtime cannot read switch
        // state (§5.2), so it re-issues every command.
        ps.commandSwitch(i, desired);
    }
}

bool
Runtime::banksHold(ModeId mode, double v) const
{
    const auto &ps = kernel.device().powerSystem();
    for (int idx : registry.banks(mode)) {
        if (ps.bank(idx).voltage() < v)
            return false;
    }
    return true;
}

double
Runtime::prechargeCeiling() const
{
    const auto &ps = kernel.device().powerSystem();
    return ps.systemSpec().maxStorageVoltage -
           ps.systemSpec().prechargePenaltyVoltage;
}

bool
Runtime::parkToCharge()
{
    ++rtStats.rechargePauses;
    kernel.device().powerDown();
    return false;
}

} // namespace capy::core
