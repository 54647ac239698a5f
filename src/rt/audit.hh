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
 * The auditor installs itself as the Device::Observer, so its probes
 * run after the software's own failure hook (post-tear state) and
 * before the software's boot hook (pre-repair state). Probes use
 * peek()-style accessors and never perturb the accounting they audit.
 */

#ifndef CAPY_RT_AUDIT_HH
#define CAPY_RT_AUDIT_HH

#include <functional>
#include <string>
#include <vector>

#include "dev/device.hh"

namespace capy::rt
{

class Kernel;
class CheckpointKernel;

/**
 * Watches one Device for crash-consistency violations. Construct,
 * attach the checks that apply to the software under test, run the
 * simulation, then inspect violations().
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

    /// @name Check registration
    /// @{

    /** Attach the Chain-kernel contract checks. */
    void watchKernel(const Kernel &kernel);

    /** Attach the checkpoint-kernel contract checks. */
    void watchCheckpoint(const CheckpointKernel &kernel);

    /**
     * Attach latch-retention checks: across every outage, each bank
     * switch must hold its commanded state while the latch lasts and
     * revert to default once its recorded expiry passes.
     */
    void watchLatches();

    /// @}
    /// @name Results
    /// @{

    /** Evaluate all invariants and monotonic probes immediately. */
    void checkNow();

    const std::vector<Violation> &violations() const { return found; }
    bool clean() const { return found.empty(); }

    /** Individual check evaluations performed. */
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
     * A named invariant, evaluated at every rail transition and on
     * checkNow(). Returns an empty string when the invariant holds,
     * otherwise the violation evidence.
     */
    using Check = std::function<std::string()>;

    void addInvariant(std::string rule, Check check);

    /**
     * A named monotonic quantity: any later sample below the
     * high-water mark (minus @p tol) is a violation. Sampled at every
     * rail transition and on checkNow(). The canonical use is
     * committed progress, which an outage must never roll back.
     */
    void addMonotonic(std::string rule, std::function<double()> probe,
                      double tol = 1e-12);

    struct MonotonicProbe
    {
        std::string rule;
        std::function<double()> probe;
        double tol;
        double highWater;
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
    void runChecks();
    void sampleMonotonics();
    void recordLatches();
    void checkLatches();
    void violate(const std::string &rule, std::string detail);

    dev::Device &dev;
    std::vector<std::pair<std::string, Check>> invariants;
    std::vector<MonotonicProbe> monotonics;
    bool latchesWatched = false;
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
