/**
 * @file
 * Checkpoint-based intermittent execution, in the style of
 * Hibernus/QuickRecall (§7 "System support for intermittent
 * computing"): a long sequential computation runs until a low-voltage
 * threshold fires, checkpoints its volatile state to non-volatile
 * memory, and hibernates; on the next boot it restores and continues.
 *
 * Included as the comparative substrate the paper discusses: dynamic
 * checkpointing makes progress on arbitrarily long computations with
 * any bank size (paying checkpoint overhead), but checkpoints occur
 * at arbitrary energy states, which is why the paper finds it "less
 * amenable" to Capybara's task-level energy-mode annotations than
 * Chain-style tasks.
 */

#ifndef CAPY_RT_CHECKPOINT_HH
#define CAPY_RT_CHECKPOINT_HH

#include <functional>

#include "dev/device.hh"
#include "dev/nvmem.hh"

namespace capy::rt
{

/**
 * Runs one long computation to completion across power failures by
 * checkpointing at a low-voltage threshold.
 */
class CheckpointKernel
{
  public:
    /** Checkpointing mechanism parameters. */
    struct Spec
    {
        /** Time to write a checkpoint to NVM, s. */
        double checkpointTime = 5e-3;
        /** Extra rail power while checkpointing, W. */
        double checkpointPower = 2e-3;
        /** Time to restore a checkpoint on boot, s. */
        double restoreTime = 3e-3;
        /**
         * Voltage headroom above the brown-out floor at which the
         * low-voltage interrupt fires. Must cover the checkpoint's
         * own energy, or the checkpoint itself browns out.
         */
        double voltageHeadroom = 0.25;
    };

    struct Stats
    {
        /** Checkpoint writes that committed. */
        std::uint64_t checkpoints = 0;
        /** Restores that completed. */
        std::uint64_t restores = 0;
        /** Checkpoint writes interrupted mid-commit (torn). */
        std::uint64_t tornCheckpoints = 0;
        /** Compute time lost to power failures mid-slice, s. */
        double lostWork = 0.0;
        /**
         * Wall (simulated) time overhead in *completed* checkpoints
         * and restores, s. Identity: overheadTime ==
         * checkpoints * checkpointTime + restores * restoreTime.
         */
        double overheadTime = 0.0;
        /** Checkpoint/restore time spent but aborted by failures, s. */
        double overheadLost = 0.0;
    };

    /** What the kernel was doing when a failure struck. */
    enum class Phase
    {
        None,        ///< idle / hibernating / booting
        Restore,     ///< reloading the checkpoint image
        Compute,     ///< running a work slice
        Checkpoint,  ///< writing the checkpoint image to NVM
    };

    /**
     * @param device the device to run on (kernel installs hooks).
     * @param spec checkpoint mechanism parameters.
     * @param total_work seconds of computation to perform.
     * @param extra_power rail power beyond MCU active during compute.
     * @param on_complete invoked once all work has committed.
     * @param nv accounting device for the progress cell.
     */
    CheckpointKernel(dev::Device &device, Spec spec, double total_work,
                     double extra_power,
                     std::function<void()> on_complete,
                     dev::NvMemory *nv = nullptr);

    /** Install hooks and begin (device starts charging). */
    void start();

    /** Committed progress, s of work (journal-recovered). */
    double progress() const { return nvProgress.get(); }

    bool finished() const { return done; }
    const Stats &stats() const { return ckptStats; }

    /** Work target, s. */
    double workTarget() const { return totalWork; }

    /** Mechanism parameters (for overhead-identity audits). */
    const Spec &kernelSpec() const { return spec; }

    /** Volatile work computed but not yet committed, s. */
    double uncommittedWork() const { return sliceInFlight; }

    const dev::Device &device() const { return dev; }

    /** Current phase (for audits; valid inside failure hooks). */
    Phase phase() const { return currentPhase; }

    /** The crash-consistent progress journal (audit access). */
    const dev::NvJournaledCell<double> &progressCell() const
    {
        return nvProgress;
    }

  private:
    void onBoot();
    void onPowerFail();
    /** The workload of currentPhase completed. */
    void onWorkloadDone();
    void restoreThenCompute();
    void computeSlice();
    void writeCheckpoint(double slice_work);

    dev::Device &dev;
    Spec spec;
    double totalWork;
    double extraPower;
    std::function<void()> onComplete;
    dev::NvJournaledCell<double> nvProgress;
    double sliceInFlight = 0.0;
    /** The compute slice whose workload is in flight, s. */
    double runningSlice = 0.0;
    Phase currentPhase = Phase::None;
    /** Progress value the in-flight checkpoint write will commit. */
    double pendingCommit = 0.0;
    bool done = false;
    Stats ckptStats;
};

} // namespace capy::rt

#endif // CAPY_RT_CHECKPOINT_HH
