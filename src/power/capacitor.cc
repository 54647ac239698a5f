#include "power/capacitor.hh"

#include <algorithm>
#include <cmath>
#include <limits>

#include "sim/logging.hh"

namespace capy::power
{

const char *
capTechName(CapTech tech)
{
    switch (tech) {
      case CapTech::Ceramic:
        return "ceramic";
      case CapTech::Tantalum:
        return "tantalum";
      case CapTech::Edlc:
        return "EDLC";
    }
    capy_panic("unknown CapTech %d", static_cast<int>(tech));
}

double
CapacitorSpec::leakageResistance() const
{
    if (leakageCurrent <= 0.0)
        return std::numeric_limits<double>::infinity();
    capy_assert(ratedVoltage > 0.0,
                "part '%s' has leakage but no rated voltage",
                part.c_str());
    return ratedVoltage / leakageCurrent;
}

CapacitorSpec
CapacitorSpec::parallel(std::size_t n) const
{
    capy_assert(n >= 1, "parallel(0) of part '%s'", part.c_str());
    CapacitorSpec out = *this;
    out.part = part + "x" + std::to_string(n);
    out.capacitance = capacitance * double(n);
    out.esr = esr / double(n);
    out.leakageCurrent = leakageCurrent * double(n);
    out.volume = volume * double(n);
    // Rated voltage and cycle endurance are per-part properties and do
    // not change with parallel composition.
    return out;
}

CapacitorSpec
parallelCompose(const std::vector<CapacitorSpec> &parts)
{
    capy_assert(!parts.empty(), "parallelCompose of no parts");
    CapacitorSpec out;
    out.part = "composite(";
    out.tech = parts.front().tech;
    out.ratedVoltage = std::numeric_limits<double>::infinity();
    out.cycleEndurance = std::numeric_limits<double>::infinity();
    double inv_esr = 0.0;
    bool any_esr = false;
    for (std::size_t i = 0; i < parts.size(); ++i) {
        const CapacitorSpec &p = parts[i];
        capy_assert(p.capacitance > 0.0,
                    "part '%s' has non-positive capacitance",
                    p.part.c_str());
        out.part += (i ? "+" : "") + p.part;
        out.capacitance += p.capacitance;
        out.leakageCurrent += p.leakageCurrent;
        out.volume += p.volume;
        out.ratedVoltage = std::min(out.ratedVoltage, p.ratedVoltage);
        if (p.cycleEndurance > 0.0) {
            out.cycleEndurance =
                std::min(out.cycleEndurance, p.cycleEndurance);
        }
        if (p.esr > 0.0) {
            inv_esr += 1.0 / p.esr;
            any_esr = true;
        } else {
            // An ideal (zero-ESR) branch shorts the composite ESR.
            inv_esr = std::numeric_limits<double>::infinity();
            any_esr = true;
        }
    }
    out.part += ")";
    out.esr = any_esr && std::isfinite(inv_esr) && inv_esr > 0.0
                  ? 1.0 / inv_esr
                  : 0.0;
    if (std::isinf(out.cycleEndurance))
        out.cycleEndurance = 0.0;
    return out;
}

CapacitorBank::CapacitorBank(std::string bank_name,
                             CapacitorSpec composite_spec)
    : bankName(std::move(bank_name)), composite(std::move(composite_spec))
{
    capy_assert(composite.capacitance > 0.0,
                "bank '%s' has non-positive capacitance",
                bankName.c_str());
}

double
CapacitorBank::voltage() const
{
    return std::sqrt(2.0 * storedEnergy / composite.capacitance);
}

double
CapacitorBank::charge() const
{
    return composite.capacitance * voltage();
}

double
CapacitorBank::energyAtVoltage(double v) const
{
    capy_assert(v >= 0.0, "negative voltage %g", v);
    return 0.5 * composite.capacitance * v * v;
}

void
CapacitorBank::setEnergy(double joules)
{
    storedEnergy = std::max(0.0, joules);
}

void
CapacitorBank::setVoltage(double v)
{
    setEnergy(energyAtVoltage(v));
}

void
CapacitorBank::deposit(double joules)
{
    setEnergy(storedEnergy + joules);
    if (composite.ratedVoltage > 0.0 &&
        voltage() > composite.ratedVoltage * 1.001) {
        capy_warn("bank '%s' charged to %.3g V above rating %.3g V",
                  bankName.c_str(), voltage(), composite.ratedVoltage);
    }
}

double
equalizeParallel(std::vector<CapacitorBank *> &banks)
{
    capy_assert(!banks.empty(), "equalize of no banks");
    double total_q = 0.0;
    double total_c = 0.0;
    double lost = 0.0;
    for (CapacitorBank *b : banks) {
        total_q += b->charge();
        total_c += b->capacitance();
        lost += b->energy();
    }
    double v = total_q / total_c;
    for (CapacitorBank *b : banks) {
        b->setVoltage(v);
        lost -= b->energy();
    }
    return lost;
}

} // namespace capy::power
