/**
 * @file
 * The Capybara runtime (§4.3): intercepts every task attempt through
 * the kernel's pre-task gate and reconfigures the power system to
 * match the task's declared energy mode — including the non-volatile
 * preburst state machine that charges a future burst's banks off the
 * critical path, and burst activation that runs immediately on
 * pre-charged energy.
 */

#ifndef CAPY_CORE_RUNTIME_HH
#define CAPY_CORE_RUNTIME_HH

#include <cstdint>
#include <vector>

#include "core/energy_mode.hh"
#include "dev/nvmem.hh"
#include "rt/kernel.hh"

namespace capy::core
{

/**
 * Power-system disciplines evaluated in §6: continuous power, a
 * statically provisioned fixed bank, and the two Capybara variants.
 */
enum class Policy
{
    Continuous,  ///< "Pwr": bench supply, annotations ignored
    Fixed,       ///< single worst-case bank, annotations ignored
    CapyR,       ///< reconfiguration only: bursts degrade to configs
                 ///< and recharge on the critical path
    CapyP,       ///< full Capybara: reconfiguration + preburst/burst
};

const char *policyName(Policy policy);

/**
 * Runtime that executes task energy annotations against the
 * reconfigurable power system. All control state that must survive
 * power failures (the preburst phase machine, the burst-retry flag)
 * lives in non-volatile cells.
 */
class Runtime
{
  public:
    struct Stats
    {
        /** Switch flips actually performed. */
        std::uint64_t reconfigurations = 0;
        /** Times a task parked the device to recharge. */
        std::uint64_t rechargePauses = 0;
        /** Bursts that ran immediately on pre-charged banks. */
        std::uint64_t burstActivations = 0;
        /** Bursts that found insufficient pre-charge and had to
         *  recharge on the critical path (§6.3 "provisioning is for
         *  the average case"). */
        std::uint64_t burstRecharges = 0;
        /** Preburst charge phases completed. */
        std::uint64_t prechargePhases = 0;
        /** Preburst phases skipped because banks were still charged. */
        std::uint64_t prechargeSkips = 0;
    };

    /**
     * @param kernel the task kernel to gate.
     * @param registry mode -> bank-set mapping.
     * @param policy discipline to enforce.
     * @param nv accounting device for the runtime's NV cells.
     */
    Runtime(rt::Kernel &kernel, ModeRegistry registry, Policy policy,
            dev::NvMemory *nv = nullptr);

    /** Attach an energy annotation to @p task, one of the kernel's
     *  app; must precede install(). */
    void annotate(const rt::Task *task, Annotation ann);

    /** Resolve every task's annotation under the policy and install
     *  the gate on the kernel, unless no task is left annotated (Pwr,
     *  Fixed); call before Kernel::start(). */
    void install();

    const Stats &stats() const { return rtStats; }
    Policy policy() const { return activePolicy; }
    const ModeRegistry &modes() const { return registry; }

  private:
    /** Margin below the pre-charge ceiling treated as "still full". */
    static constexpr double kPrechargeMargin = 0.1;

    /**
     * Multiples of the boot energy kept as readiness margin below the
     * full charge target. Booting and running the gate itself drain
     * the buffer below the exact full voltage; without an energy
     * margin that covers several boots the runtime would park in an
     * endless recharge loop on small banks.
     */
    static constexpr double kReadyBootMargin = 3.0;

    /** Whether the active buffer is charged enough to execute. */
    bool bufferReady() const;

    /**
     * The kernel's pre-task gate (rt::Kernel::PreTaskGate contract):
     * @retval true run @p task now.
     * @retval false the device was parked to recharge; the gate runs
     *         again for @p task after the next boot.
     * The handle* helpers return the same verdict.
     */
    bool gate(const rt::Task &task);
    /** What @p ann does under the policy: nothing under Pwr and
     *  Fixed, a config of its mode for a Capy-R burst or preburst. */
    Annotation effectiveAnnotation(const Annotation &ann) const;

    bool handleConfig(ModeId mode);
    bool handleBurst(const rt::Task &task, ModeId mode);
    bool handlePreburst(const Annotation &ann);

    /** Re-issue switch commands so exactly @p mode's banks (plus the
     *  hard-wired ones) are active. */
    void applyMode(ModeId mode);

    /** Whether every bank of @p mode holds at least @p v volts. */
    bool banksHold(ModeId mode, double v) const;

    double prechargeCeiling() const;

    /** Park the device to recharge; the gate re-runs after reboot.
     *  @return false, the gate verdict for a parked device. */
    bool parkToCharge();

    rt::Kernel &kernel;
    ModeRegistry registry;
    Policy activePolicy;
    /** By rt::Task::index: as annotated until install(), then
     *  effectiveAnnotation() of that, which gate() reads. */
    std::vector<Annotation> annotations;
    Stats rtStats;

    /** Set while parked charging a preburst's banks (accounting). */
    dev::NvCell<int> nvPbCharging;
    /**
     * The mode the runtime believes the hardware is in — what it last
     * commanded. The hardware cannot report actual switch state
     * (§5.2), so after a latch reversion belief and reality diverge
     * until the next reconfiguration. Reset at every boot so the
     * runtime conservatively re-issues the configuration after power
     * failures, which is what produces the paper's adversarial
     * NO-switch cycle of "switch state loss, incomplete task
     * execution, and switch reconfiguration".
     */
    dev::NvCell<ModeId> nvBelievedMode;
    /** Boot count at the last gate, to detect fresh boots. */
    std::uint64_t lastSeenBoots = ~0ull;
    /** nvBurstAttempt when no burst attempt is open. */
    static constexpr std::uint32_t kNoBurst = ~std::uint32_t{0};
    /** Task::index of the burst task the gate let run but that has
     *  not yet been left behind (a gate for another task clears it);
     *  one NV word, as the kernel's task word. */
    dev::NvCell<std::uint32_t> nvBurstAttempt;
    bool installed = false;
};

} // namespace capy::core

#endif // CAPY_CORE_RUNTIME_HH
