/**
 * @file
 * Application-level fault-injection harness: one object that wires a
 * sim::FaultPlan (the adversarial failure schedule), the devices'
 * injectPowerFailure() entry point, and one rt::CrashAuditor per
 * device together for an application run, and condenses the outcome
 * into a FaultReport that rides along in RunMetrics. Every faulted
 * run goes through it: one device, or CapySat's two MCUs on one
 * supply bus, where each injected failure strikes both.
 *
 * The app entry points (runCorrSense, runGestureRemote, runTempAlarm,
 * runCapySat) accept an optional FaultSpec; the crash-sweep driver
 * (tools/crash_sweep) exhausts single-failure-point specs against an
 * uninterrupted oracle run.
 */

#ifndef CAPY_APPS_FAULTS_HH
#define CAPY_APPS_FAULTS_HH

#include <cstdint>
#include <initializer_list>
#include <list>
#include <optional>
#include <string>
#include <utility>
#include <vector>

#include "dev/device.hh"
#include "dev/nvmem.hh"
#include "rt/audit.hh"
#include "rt/checkpoint.hh"
#include "sim/fault.hh"

namespace capy::rt
{
class Kernel;
} // namespace capy::rt

namespace capy::apps
{

/** What to inject and what to audit during an application run. */
struct FaultSpec
{
    /** Failure schedule; empty() = audit only, no injection. */
    sim::FaultPlan plan;
    /** Storage treatment of each injected failure. */
    dev::Device::FailureKind kind =
        dev::Device::FailureKind::Collapse;
    /** Attach the crash-consistency auditors. */
    bool audit = true;
    /**
     * Deliberately break the NV journal recovery path (CRC checks
     * skipped on read). The run should then FAIL its audit — this is
     * the fixture proving the auditor catches a broken recovery path,
     * never a mode for real experiments.
     */
    bool breakRecovery = false;
};

/** Condensed outcome of a faulted (or audit-only) run. */
struct FaultReport
{
    std::uint64_t attempts = 0;  ///< injection attempts
    std::uint64_t fired = 0;     ///< attempts that hit a powered device
    std::uint64_t outagesAudited = 0;
    std::uint64_t checksRun = 0;
    std::uint64_t violations = 0;
    /** Formatted violation list ("" when clean). */
    std::string violationText;
    /** Powered [up, down] intervals (see CrashAuditor::activeSpans);
     *  the crash-sweep driver aims time-indexed failures at these. */
    std::vector<std::pair<double, double>> activeSpans;

    bool clean() const { return violations == 0; }
};

/**
 * Wires injection + audit onto a run's devices for the duration of
 * the run. Construct after the devices exist, attach the kernels, run
 * the simulation, then call finish().
 */
class FaultHarness
{
  public:
    /**
     * @param devices the run's devices (one, or CapySat's two MCUs on
     *        one supply bus). Each gets an auditor; each injected
     *        failure strikes them all, in this order.
     * @param spec what to inject/audit.
     * @param nv the NV accounting device backing the software's
     *        journaled cells (needed for spec.breakRecovery).
     */
    FaultHarness(std::initializer_list<dev::Device *> devices,
                 const FaultSpec &spec, dev::NvMemory *nv = nullptr);

    FaultHarness(const FaultHarness &) = delete;
    FaultHarness &operator=(const FaultHarness &) = delete;

    /** Attach Chain-kernel checks to the auditor of the kernel's
     *  device (no-op when audit is off). */
    void watchKernel(const rt::Kernel &kernel);

    /** Attach checkpoint-kernel checks to the auditor of the kernel's
     *  device (no-op when audit is off). */
    void watchCheckpoint(const rt::CheckpointKernel &kernel);

    /** Run a final audit pass and add up the outcome in device
     *  order. */
    FaultReport finish();

  private:
    /** The auditor of @p device; nullptr when audit is off. */
    rt::CrashAuditor *auditorOf(const dev::Device &device);

    std::vector<dev::Device *> devs;
    /** In device order. A list: each auditor's address sits in its
     *  device's observer, so it never moves. */
    std::list<rt::CrashAuditor> auditors;
    std::optional<sim::FaultInjector> injector;
};

/** End state of a standalone checkpoint crash workload. */
struct CheckpointCrashMetrics
{
    bool finished = false;
    double progress = 0.0;
    rt::CheckpointKernel::Stats kernel;
    dev::Device::Stats device;
    std::uint64_t tornCommits = 0;
    std::uint64_t tornRecoveries = 0;
    std::uint64_t simEvents = 0;
    FaultReport faults;
};

/**
 * Run a long sequential computation under the checkpointing kernel on
 * a small harvested buffer — the workload whose multi-word NV commits
 * make torn writes reachable. The crash-sweep driver and the fault
 * property tests share this rig.
 *
 * @param faults injection/audit spec; nullptr = uninterrupted oracle.
 * @param total_work seconds of compute to commit.
 * @param horizon simulated run length, s.
 */
CheckpointCrashMetrics runCheckpointCrashWorkload(
    const FaultSpec *faults, double total_work = 2.0,
    double horizon = 600.0);

} // namespace capy::apps

#endif // CAPY_APPS_FAULTS_HH
