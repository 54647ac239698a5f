/**
 * @file
 * Crash-consistency auditor: the adversarial counterpart to the
 * fault injector (sim/fault.hh). While the injector forces power
 * failures at chosen instants, the auditor watches the device from
 * outside the software under test and checks, at every rail
 * transition, that the non-volatile state obeys the intermittent
 * model's contracts:
 *
 *  - monotonic progress: committed checkpoint/task progress never
 *    regresses across an outage;
 *  - atomic transitions: the recovered NV task word always
 *    designates a real task, it is written once per committed
 *    transition and never by an aborted attempt, and the Chain
 *    accounting identity (completions == transitions + halted) holds;
 *  - journal integrity: a torn checkpoint commit is detected by the
 *    two-slot protocol, never returned as a value;
 *  - latch retention: an unpowered bank switch holds its commanded
 *    state exactly until its analytic expiry and reverts to its
 *    default after;
 *  - time accounting: checkpoint overhead balances against completed
 *    checkpoint/restore counts.
 *
 * The rule set is fixed: the device failure accounting rule always,
 * the four Chain rules and the `chain-transitions` high-water mark for
 * one watched Kernel, the four checkpoint rules and the
 * `ckpt-progress` high-water mark for one watched CheckpointKernel,
 * and latch retention/reversion always.
 *
 * The auditor installs itself as the Device::Observer, so its probes
 * run after the software's own failure hook (post-tear state) and
 * before the software's boot hook (pre-repair state). Probes use
 * peek()-style accessors and never perturb the accounting they audit.
 */

#ifndef CAPY_RT_AUDIT_HH
#define CAPY_RT_AUDIT_HH

#include <string>
#include <vector>

#include "dev/device.hh"

namespace capy::rt
{

class Kernel;
class CheckpointKernel;

/**
 * Watches one Device for crash-consistency violations. Construct,
 * attach the kernel the device runs, run the simulation, then inspect
 * violations().
 */
class CrashAuditor
{
  public:
    /** One detected contract violation. */
    struct Violation
    {
        std::string rule;    ///< name of the violated check
        std::string detail;  ///< human-readable evidence
        sim::Time when = 0.0;
    };

    /** Takes the device's Observer slot for its lifetime. */
    explicit CrashAuditor(dev::Device &device);

    CrashAuditor(const CrashAuditor &) = delete;
    CrashAuditor &operator=(const CrashAuditor &) = delete;

    /** The audited device. */
    const dev::Device &device() const { return dev; }

    /// @name Kernel checks (at most one of each kind, on this device)
    /// @{

    /** Attach the Chain-kernel contract checks. */
    void watchKernel(const Kernel &kernel);

    /** Attach the checkpoint-kernel contract checks. */
    void watchCheckpoint(const CheckpointKernel &kernel);

    /// @}
    /// @name Results
    /// @{

    /** Evaluate every rule, then every high-water mark, now. */
    void checkNow();

    const std::vector<Violation> &violations() const { return found; }
    bool clean() const { return found.empty(); }

    /** Check evaluations performed: one per rule, one per high-water
     *  sample, one per latch record. */
    std::uint64_t checksRun() const { return numChecks; }
    /** Rail-down/rail-up transition pairs observed. */
    std::uint64_t outagesAudited() const { return numOutages; }

    /** Multi-line human-readable violation list ("" when clean). */
    std::string report() const;

    /**
     * Powered [rail-up, rail-down] intervals observed so far. An
     * interval still open (device powered) is closed at the current
     * simulation time. The crash-sweep driver targets these spans
     * with time-indexed injections — failure points outside them hit
     * an unpowered device and can't tear anything.
     */
    std::vector<std::pair<sim::Time, sim::Time>> activeSpans() const;

    /// @}

  private:
    /**
     * Committed progress, which an outage must never roll back: any
     * sample below the highest one seen so far is a violation.
     */
    struct HighWater
    {
        double mark = 0.0;
        bool seeded = false;
    };

    /** Latch state recorded at rail-down for one switched bank. */
    struct LatchRecord
    {
        int bankIdx = 0;
        bool closed = false;
        bool atDefault = false;
        sim::Time expiry = 0.0;  ///< absolute reversion time
    };

    void onRailUp();
    void onRailDown();
    /** Count one rule evaluation; @p detail non-empty = violated. */
    void check(const char *rule, std::string detail);
    void sample(const char *rule, HighWater &hw, double value);
    void recordLatches();
    void checkLatches();
    void violate(const std::string &rule, std::string detail);

    dev::Device &dev;
    const Kernel *kernel = nullptr;
    HighWater transitionsMark;
    const CheckpointKernel *ckpt = nullptr;
    HighWater progressMark;
    std::vector<LatchRecord> latchesAtDown;
    bool downRecorded = false;
    sim::Time lastDownTime = 0.0;
    sim::Time lastUpTime = -1.0;
    std::vector<std::pair<sim::Time, sim::Time>> spans;
    std::vector<Violation> found;
    std::uint64_t numChecks = 0;
    std::uint64_t numOutages = 0;
};

} // namespace capy::rt

#endif // CAPY_RT_AUDIT_HH
