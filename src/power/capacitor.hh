/**
 * @file
 * Capacitor models: per-part electrical/mechanical specifications,
 * parallel composition, and a charge-holding CapacitorBank.
 *
 * The three technologies the paper provisions with (ceramic X5R,
 * tantalum, EDLC supercapacitor) differ in the parameters that drive
 * the evaluation: volumetric energy density (Fig. 4), equivalent
 * series resistance (extractable-energy floor, §2.2.2), leakage
 * (retention of pre-charged burst banks, §4.2), and charge-cycle
 * endurance (wear levelling discussion, §5.2).
 */

#ifndef CAPY_POWER_CAPACITOR_HH
#define CAPY_POWER_CAPACITOR_HH

#include <string>
#include <vector>

namespace capy::power
{

/** Capacitor dielectric/construction technology. */
enum class CapTech
{
    Ceramic,   ///< MLCC, e.g. X5R: low density, very low ESR/leakage
    Tantalum,  ///< mid density, moderate ESR
    Edlc,      ///< supercapacitor: high density, high ESR and leakage
};

/** Human-readable technology name. */
const char *capTechName(CapTech tech);

/**
 * Electrical and mechanical specification of one capacitor part (or a
 * parallel composite of parts).
 */
struct CapacitorSpec
{
    std::string part;          ///< catalog name, e.g. "X5R-100uF"
    CapTech tech = CapTech::Ceramic;
    double capacitance = 0.0;  ///< F
    double esr = 0.0;          ///< ohm, series
    double leakageCurrent = 0.0;  ///< A at rated voltage
    double ratedVoltage = 0.0; ///< V
    double volume = 0.0;       ///< mm^3, package volume
    double cycleEndurance = 0.0;  ///< rated full charge-discharge cycles

    /**
     * Effective parallel leakage resistance at rated voltage
     * (R = V_rated / I_leak); infinity when leakage is zero.
     */
    double leakageResistance() const;

    /** Combine @p n identical parts in parallel. */
    CapacitorSpec parallel(std::size_t n) const;
};

/** Parallel composition of heterogeneous parts into one composite. */
CapacitorSpec parallelCompose(const std::vector<CapacitorSpec> &parts);

/**
 * A capacitor (or composite) holding charge. Tracks stored energy;
 * voltage and charge derive from E = C V^2 / 2.
 */
class CapacitorBank
{
  public:
    CapacitorBank() = default;

    /** @param bank_name label used in traces and errors. */
    CapacitorBank(std::string bank_name, CapacitorSpec composite);

    const std::string &name() const { return bankName; }
    const CapacitorSpec &spec() const { return composite; }
    double capacitance() const { return composite.capacitance; }
    double esr() const { return composite.esr; }

    /** Stored energy in joules. */
    double energy() const { return storedEnergy; }

    /** Terminal voltage, sqrt(2E/C). */
    double voltage() const;

    /** Stored charge, C*V. */
    double charge() const;

    /** Energy this bank would store at voltage @p v. */
    double energyAtVoltage(double v) const;

    /** Set stored energy directly (clamped at >= 0). */
    void setEnergy(double joules);

    /** Set stored energy via a terminal voltage. */
    void setVoltage(double v);

    /**
     * Add (or with negative @p joules remove) energy; clamps at zero
     * and warns if the resulting voltage exceeds the rated voltage.
     */
    void deposit(double joules);

    /** Count one full charge-discharge cycle against endurance. */
    void recordCycle() { ++cycles; }

    /** Charge-discharge cycles recorded so far. */
    std::uint64_t cyclesUsed() const { return cycles; }

  private:
    std::string bankName;
    CapacitorSpec composite;
    double storedEnergy = 0.0;
    std::uint64_t cycles = 0;
};

/**
 * Redistribute charge among banks connected in parallel: all end at
 * the common voltage V = (sum q_i) / (sum C_i). Charge is conserved;
 * energy is not (the physical redistribution loss when connecting
 * capacitors at different voltages).
 *
 * @return the energy dissipated, J.
 */
double equalizeParallel(std::vector<CapacitorBank *> &banks);

} // namespace capy::power

#endif // CAPY_POWER_CAPACITOR_HH
