#include "rt/checkpoint.hh"

#include <algorithm>
#include <cmath>

#include "power/solver.hh"
#include "sim/logging.hh"

namespace capy::rt
{

CheckpointKernel::CheckpointKernel(dev::Device &device, Spec spec_in,
                                   double total_work,
                                   double extra_power,
                                   std::function<void()> on_complete,
                                   dev::NvMemory *nv)
    : dev(device), spec(spec_in), totalWork(total_work),
      extraPower(extra_power), onComplete(std::move(on_complete)),
      nvProgress(nv, 0.0)
{
    capy_assert(total_work > 0.0, "no work to run");
    capy_assert(spec.voltageHeadroom > 0.0, "headroom must be > 0");
}

void
CheckpointKernel::start()
{
    dev.setHooks(dev::Device::Hooks{
        .onBoot = [this] { onBoot(); },
        .onPowerFail = [this] { onPowerFail(); },
        .onWorkloadDone = [this] { onWorkloadDone(); },
    });
    dev.start();
}

void
CheckpointKernel::onBoot()
{
    if (done)
        return;
    restoreThenCompute();
}

void
CheckpointKernel::onPowerFail()
{
    // Any power failure destroys volatile state: every slice computed
    // since the last committed checkpoint is lost — including when
    // the failure strikes during the checkpoint write itself.
    double elapsed = dev.lastAbortedWorkload().elapsed;
    switch (currentPhase) {
      case Phase::Restore:
        ckptStats.overheadLost += elapsed;
        break;
      case Phase::Compute:
        // The interrupted slice's partial time is real lost work on
        // top of the uncommitted slices already in flight.
        ckptStats.lostWork += elapsed;
        break;
      case Phase::Checkpoint: {
        ckptStats.overheadLost += elapsed;
        // The NVM image is written word-by-word over the checkpoint
        // window; a failure inside it leaves a torn record. The
        // completion never ran, so at most all-but-one word landed.
        std::size_t total = nvProgress.slotWords();
        double frac =
            std::clamp(elapsed / spec.checkpointTime, 0.0, 1.0);
        auto words = static_cast<std::size_t>(
            frac * static_cast<double>(total));
        words = std::min(words, total - 1);
        nvProgress.tearSet(pendingCommit, words);
        ++ckptStats.tornCheckpoints;
        break;
      }
      case Phase::None:
        break;
    }
    currentPhase = Phase::None;
    ckptStats.lostWork += sliceInFlight;
    sliceInFlight = 0.0;
}

void
CheckpointKernel::onWorkloadDone()
{
    // Overhead and counts account on completion: an aborted restore
    // is overheadLost, not a restore, and an aborted checkpoint write
    // is overheadLost plus a torn journal slot (onPowerFail).
    switch (currentPhase) {
      case Phase::Restore:
        ++ckptStats.restores;
        ckptStats.overheadTime += spec.restoreTime;
        currentPhase = Phase::None;
        computeSlice();
        break;
      case Phase::Compute:
        currentPhase = Phase::None;
        sliceInFlight += runningSlice;
        // Work finished (final checkpoint) or LVI fired (save state
        // while energy remains): commit either way.
        writeCheckpoint(sliceInFlight);
        break;
      case Phase::Checkpoint:
        ++ckptStats.checkpoints;
        ckptStats.overheadTime += spec.checkpointTime;
        nvProgress.set(pendingCommit);
        sliceInFlight = 0.0;
        currentPhase = Phase::None;
        if (nvProgress.get() >= totalWork - 1e-12) {
            done = true;
            if (onComplete)
                onComplete();
            return;
        }
        // Hibernate until the buffer refills.
        dev.powerDown();
        break;
      case Phase::None:
        capy_panic("checkpoint kernel: a workload completed in no "
                   "phase");
    }
}

void
CheckpointKernel::restoreThenCompute()
{
    if (nvProgress.get() > 0.0) {
        currentPhase = Phase::Restore;
        dev.runWorkload(dev.mcu().activePower, spec.restoreTime);
        return;
    }
    computeSlice();
}

void
CheckpointKernel::computeSlice()
{
    if (done)
        return;
    double remaining = totalWork - nvProgress.get();
    if (remaining <= 0.0) {
        done = true;
        if (onComplete)
            onComplete();
        return;
    }

    // Run until either the work completes or the low-voltage
    // interrupt threshold is reached.
    auto &ps = dev.powerSystem();
    ps.advanceTo(dev.simulator().now());
    double compute_power = dev.mcu().activePower + extraPower;
    // Predict the LVI instant under the compute load.
    ps.setRailLoad(compute_power);
    double v_lvi = ps.brownoutVoltageNow() + spec.voltageHeadroom;
    sim::Time t_lvi = ps.storageVoltage() > v_lvi
                          ? ps.timeToVoltage(v_lvi)
                          : 0.0;

    if (t_lvi <= 1e-6) {
        // Already at the threshold: checkpoint (nothing new to save)
        // and hibernate until recharged.
        if (sliceInFlight > 0.0) {
            writeCheckpoint(sliceInFlight);
            return;
        }
        dev.powerDown();
        return;
    }

    runningSlice = std::min(remaining, t_lvi);
    currentPhase = Phase::Compute;
    dev.runWorkload(compute_power, runningSlice);
}

void
CheckpointKernel::writeCheckpoint(double slice_work)
{
    currentPhase = Phase::Checkpoint;
    pendingCommit = nvProgress.get() + slice_work;
    dev.runWorkload(dev.mcu().activePower + spec.checkpointPower,
                    spec.checkpointTime);
}

} // namespace capy::rt
