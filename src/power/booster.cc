#include "power/booster.hh"

#include <algorithm>
#include <cmath>

#include "sim/logging.hh"

namespace capy::power
{

double
inputChargePower(const InputBoosterSpec &spec, double p_harvest,
                 double v_harvest, double v_storage)
{
    if (p_harvest <= 0.0)
        return 0.0;

    if (v_storage >= spec.coldStartVoltage) {
        // Converter running: boosted transfer minus its own draw.
        return std::max(0.0,
                        spec.efficiency * p_harvest -
                            spec.quiescentPower);
    }

    // Cold start. The trickle path always exists; the bypass diode
    // conducts only while the harvester voltage exceeds the storage
    // voltage by the diode drop.
    double trickle = spec.coldStartFraction * p_harvest;
    if (spec.bypassEnabled &&
        v_harvest - spec.bypassDiodeDrop > v_storage) {
        return std::max(trickle, spec.bypassEfficiency * p_harvest);
    }
    return trickle;
}

std::array<double, 2>
inputChargeBreakpoints(const InputBoosterSpec &spec, double v_harvest)
{
    return {spec.coldStartVoltage,
            spec.bypassEnabled ? v_harvest - spec.bypassDiodeDrop : -1.0};
}

double
storageDrawPower(const OutputBoosterSpec &spec, double rail_load)
{
    capy_assert(rail_load >= 0.0, "negative rail load %g", rail_load);
    return rail_load / spec.efficiency + spec.quiescentPower;
}

namespace
{

double
droopFloor(double v_min, double p_in, double esr)
{
    // Smallest V with V - (p_in / V) * esr >= v_min:
    //   V^2 - v_min V - p_in esr = 0.
    return 0.5 * (v_min + std::sqrt(v_min * v_min + 4.0 * p_in * esr));
}

} // namespace

double
brownoutVoltage(const OutputBoosterSpec &spec, double rail_load,
                double esr)
{
    capy_assert(esr >= 0.0, "negative ESR %g", esr);
    return droopFloor(spec.minInputRun, storageDrawPower(spec, rail_load),
                      esr);
}

double
startVoltage(const OutputBoosterSpec &spec, double rail_load, double esr)
{
    capy_assert(esr >= 0.0, "negative ESR %g", esr);
    return droopFloor(spec.minInputStart,
                      storageDrawPower(spec, rail_load), esr);
}

double
limitedVoltage(const LimiterSpec &spec, double v_harvest)
{
    return std::min(v_harvest, spec.clampVoltage);
}

} // namespace capy::power
