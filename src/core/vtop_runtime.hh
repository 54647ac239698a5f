/**
 * @file
 * A DEBS-style runtime (Gomez et al., "Dynamic Energy Burst Scaling",
 * discussed in §7): energy bursts are scaled by programming the top
 * voltage V_top to which a single fixed capacitor charges, instead of
 * switching capacitor banks.
 *
 * Functionally this reconfigures capacity like Capybara's C-control,
 * but (a) the threshold lives in an EEPROM potentiometer with finite
 * write endurance, (b) the full capacitance is always present, so
 * cold start and every low-energy mode pay the large capacitor's
 * charge-up to the booster's start voltage, and (c) there is no way
 * to retain a pre-charged burst while operating at a lower threshold
 * — no preburst/burst support.
 */

#ifndef CAPY_CORE_VTOP_RUNTIME_HH
#define CAPY_CORE_VTOP_RUNTIME_HH

#include <memory>
#include <unordered_map>

#include "core/threshold_alt.hh"
#include "rt/kernel.hh"

namespace capy::core
{

/**
 * Kernel gate that maps each task to a charge threshold on a single
 * fixed capacitor (DEBS-style burst scaling).
 */
class VtopRuntime
{
  public:
    struct Stats
    {
        std::uint64_t thresholdChanges = 0;
        std::uint64_t rechargePauses = 0;
    };

    /**
     * @param kernel the task kernel to gate.
     * @param eeprom accounting device for potentiometer writes
     *        (finite endurance, §5.2).
     */
    VtopRuntime(rt::Kernel &kernel, dev::NvMemory *eeprom = nullptr);

    /**
     * Annotate @p task with its charge threshold @p v_top. The value
     * plays the role of an energy mode: higher thresholds buffer
     * more energy for bigger atomic tasks.
     */
    void annotate(const rt::Task *task, double v_top);

    /** Install the gate; call before Kernel::start(). */
    void install();

    const Stats &stats() const { return rtStats; }

    /** Potentiometer EEPROM writes so far. */
    std::uint64_t eepromWrites() const
    {
        return controller ? controller->eepromWrites() : 0;
    }

  private:
    /** The kernel's pre-task gate: true runs @p task now, false
     *  means the device was parked to charge to the threshold. */
    bool gate(const rt::Task &task);

    rt::Kernel &kernel;
    dev::NvMemory *eeprom;
    std::unique_ptr<VtopController> controller;
    std::unordered_map<const rt::Task *, double> thresholds;
    Stats rtStats;
    bool installed = false;
};

} // namespace capy::core

#endif // CAPY_CORE_VTOP_RUNTIME_HH
