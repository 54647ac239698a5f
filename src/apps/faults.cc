#include "apps/faults.hh"

#include <memory>
#include <utility>

#include "apps/experiment.hh"
#include "dev/mcu.hh"
#include "power/parts.hh"
#include "rt/checkpoint.hh"
#include "rt/kernel.hh"
#include "sim/logging.hh"

namespace capy::apps
{

FaultHarness::FaultHarness(
    std::initializer_list<dev::Device *> devices, const FaultSpec &spec,
    dev::NvMemory *nv)
    : devs(devices)
{
    capy_assert(!devs.empty(), "a fault harness needs a device");
    if (spec.breakRecovery) {
        capy_assert(nv != nullptr,
                    "breakRecovery needs the NV device");
        nv->disableRecoveryForTest(true);
    }
    if (spec.audit) {
        for (dev::Device *d : devs)
            auditors.emplace_back(*d);
    }
    if (!spec.plan.empty()) {
        injector.emplace(devs.front()->simulator(), spec.plan,
                         [this, kind = spec.kind] {
                             bool hit = false;
                             for (dev::Device *d : devs)
                                 hit |= d->injectPowerFailure(kind);
                             return hit;
                         });
    }
}

rt::CrashAuditor *
FaultHarness::auditorOf(const dev::Device &device)
{
    for (rt::CrashAuditor &aud : auditors)
        if (&aud.device() == &device)
            return &aud;
    capy_assert(auditors.empty(), "kernel on a device of another run");
    return nullptr;
}

void
FaultHarness::watchKernel(const rt::Kernel &kernel)
{
    if (rt::CrashAuditor *aud = auditorOf(kernel.device()))
        aud->watchKernel(kernel);
}

void
FaultHarness::watchCheckpoint(const rt::CheckpointKernel &kernel)
{
    if (rt::CrashAuditor *aud = auditorOf(kernel.device()))
        aud->watchCheckpoint(kernel);
}

FaultReport
FaultHarness::finish()
{
    FaultReport rep;
    if (injector) {
        rep.attempts = injector->attempts();
        rep.fired = injector->fired();
    }
    for (rt::CrashAuditor &aud : auditors) {
        // End-state pass: the device may have halted mid-charge with
        // no further rail transitions to audit at.
        aud.checkNow();
        rep.outagesAudited += aud.outagesAudited();
        rep.checksRun += aud.checksRun();
        rep.violations += aud.violations().size();
        rep.violationText += aud.report();
        auto spans = aud.activeSpans();
        rep.activeSpans.insert(rep.activeSpans.end(), spans.begin(),
                               spans.end());
    }
    return rep;
}

CheckpointCrashMetrics
runCheckpointCrashWorkload(const FaultSpec *faults, double total_work,
                           double horizon)
{
    sim::Simulator simulator;
    power::PowerSystem::Spec spec;
    // 3 mW in against a 22 mW active draw: the run must charge, burn
    // a slice, checkpoint, and hibernate repeatedly, so failure
    // points cross every phase of the charge-then-execute cycle.
    auto ps = std::make_unique<power::PowerSystem>(
        spec, std::make_unique<power::RegulatedSupply>(3e-3, 3.3));
    ps->addBank("b", power::parts::edlc7_5mF());
    dev::Device device(simulator, std::move(ps), dev::msp430fr5969(),
                       dev::Device::PowerMode::Intermittent);
    dev::NvMemory fram("fram");

    // Slow (multi-word, tearable) NVM image writes: a wide
    // checkpoint window is what gives mid-commit failure points
    // something to tear.
    rt::CheckpointKernel::Spec kspec;
    kspec.checkpointTime = 25e-3;
    kspec.restoreTime = 10e-3;

    bool complete = false;
    rt::CheckpointKernel kernel(device, kspec, total_work, 0.0,
                                [&] { complete = true; }, &fram);

    std::optional<FaultHarness> harness;
    if (faults) {
        harness.emplace({&device}, *faults, &fram);
        harness->watchCheckpoint(kernel);
    }

    kernel.start();
    simulator.runUntil(horizon);
    assertLedgerBalances(device.powerSystem());

    CheckpointCrashMetrics out;
    out.finished = complete;
    out.progress = kernel.progressCell().peek();
    out.kernel = kernel.stats();
    out.device = device.stats();
    out.tornCommits = fram.tornCommits();
    out.tornRecoveries = fram.tornRecoveries();
    out.simEvents = simulator.eventsExecuted();
    if (harness)
        out.faults = harness->finish();
    return out;
}

} // namespace capy::apps
