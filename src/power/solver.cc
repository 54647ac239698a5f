#include "power/solver.hh"

#include <algorithm>
#include <cmath>

#include "sim/logging.hh"
#include "sim/work.hh"

namespace capy::power
{

namespace
{

/** Relative tolerance for "already at target" checks. */
constexpr double kRelTol = 1e-12;

/** A level this close to a node's voltage counts as reached. */
constexpr double kVTol = 1e-6;

bool
lossless(const Phase &ph)
{
    return std::isinf(ph.leakRes);
}

} // namespace

double
steadyStateEnergy(const Phase &ph)
{
    if (lossless(ph))
        return ph.power > 0.0 ? kNever : 0.0;
    return std::max(0.0, ph.power * ph.leakRes * ph.capacitance * 0.5);
}

double
energyReaching(double v, double capacitance)
{
    capy_assert(capacitance > 0.0, "capacitance %g <= 0", capacitance);
    if (!(v > 0.0))
        return 0.0;
    auto reaches = [&](double e) {
        return std::sqrt(2.0 * e / capacitance) >= v;
    };
    double e = 0.5 * capacitance * v * v;
    while (!reaches(e))
        e = std::nextafter(e, kNever);
    while (e > 0.0 && reaches(std::nextafter(e, 0.0)))
        e = std::nextafter(e, 0.0);
    return e;
}

double
uncachedExp(double dt, double tau)
{
    ++sim::workCounts.exps;
    return std::exp(-dt / tau);
}

double
advanceEnergy(double e0, const Phase &ph, double dt, ExpCache *memo)
{
    capy_assert(ph.capacitance > 0.0, "phase capacitance %g <= 0",
                ph.capacitance);
    capy_assert(dt >= 0.0, "negative dt %g", dt);
    capy_assert(e0 >= 0.0, "negative initial energy %g", e0);
    if (dt == 0.0)
        return e0;

    if (lossless(ph)) {
        // dE/dt = P: linear trajectory, clamped at zero.
        return std::max(0.0, e0 + ph.power * dt);
    }

    double tau = ph.leakRes * ph.capacitance * 0.5;
    double einf = ph.power * tau;  // may be negative when P < 0
    double decay = memo ? memo->expNegRatio(dt, tau)
                        : uncachedExp(dt, tau);
    double e = einf + (e0 - einf) * decay;
    return std::max(0.0, e);
}

double
timeToEnergy(double e0, double target, const Phase &ph)
{
    capy_assert(ph.capacitance > 0.0, "phase capacitance %g <= 0",
                ph.capacitance);
    capy_assert(e0 >= 0.0 && target >= 0.0,
                "negative energy (e0=%g, target=%g)", e0, target);

    double scale = std::max({e0, target, 1e-30});
    if (std::abs(target - e0) <= kRelTol * scale)
        return 0.0;

    if (lossless(ph)) {
        if (ph.power == 0.0)
            return kNever;
        double t = (target - e0) / ph.power;
        return t > 0.0 ? t : kNever;
    }

    double tau = ph.leakRes * ph.capacitance * 0.5;
    double einf = ph.power * tau;
    // E(t) moves monotonically from e0 toward einf. The target is
    // reachable iff it lies strictly between e0 and einf (einf itself
    // is approached asymptotically), or equals a clamp at zero.
    double num = target - einf;
    double den = e0 - einf;
    if (den == 0.0)
        return kNever;  // already at steady state, never moves
    double ratio = num / den;
    if (ratio <= 0.0)
        return kNever;  // target on the far side of the asymptote
    if (ratio >= 1.0)
        return kNever;  // target behind the start, moving away
    return -tau * std::log(ratio);
}

bool
stepMisses(double e0, double e1, double target, const Phase &ph)
{
    // advanceEnergy() and timeToEnergy() each land a few ulps of the
    // largest energy involved (e0, e1, the target, |einf|) off the
    // exact trajectory, and timeToEnergy() returns 0 for a target
    // within kRelTol of e0. A margin of 2 kRelTol of that scale,
    // about 9000 ulps, covers all three.
    double scale = std::max(e0 + e1 + target, 1e-30);
    if (!lossless(ph))
        scale += std::abs(ph.power * (ph.leakRes * ph.capacitance * 0.5));
    const double margin = 2.0 * kRelTol * scale;
    return target < std::min(e0, e1) - margin ||
           target > std::max(e0, e1) + margin;
}

PhaseStep
phaseStep(const InputBoosterSpec &booster, double p_h, double v_h,
          const StepNode &n)
{
    const double v = std::sqrt(2.0 * n.energy / n.capacitance);
    auto energyAt = [&](double u) { return 0.5 * n.capacitance * u * u; };
    auto upkeep = [&](double u) {
        return n.draw +
               (std::isfinite(n.leakRes) ? u * u / n.leakRes : 0.0);
    };
    auto input = [&](double u) {
        return n.fed ? inputChargePower(booster, p_h, v_h, u) : 0.0;
    };

    if (v > n.top + kVTol) {
        // Above its top (a lowered ceiling): the booster stops
        // charging, and the node drains down to the top.
        return {Phase{-n.draw, n.capacitance, n.leakRes}, 0.0,
                energyAt(n.top), false};
    }
    if (n.full && inputChargePower(booster, p_h, v_h, n.top) >=
                      upkeep(n.top))
        return {Phase{}, upkeep(n.top), energyAt(n.top), true};

    // Nearest levels above and below v where the motion changes.
    double up = n.top;
    double dn = 0.0;
    if (n.fed) {
        for (double bp : inputChargeBreakpoints(booster, v_h)) {
            if (bp > v + kVTol)
                up = std::min(up, bp);
            if (bp < v - kVTol)
                dn = std::max(dn, bp);
        }
    }
    const double in_up = input(0.5 * (v + up));
    const double in_dn = input(0.5 * (dn + v));
    const Phase rise{in_up - n.draw, n.capacitance, n.leakRes};
    const Phase fall{in_dn - n.draw, n.capacitance, n.leakRes};
    if (steadyStateEnergy(rise) > n.energy)
        return {rise, in_up, energyAt(up), false};
    if (steadyStateEnergy(fall) < n.energy)
        return {fall, in_dn, energyAt(dn), false};
    return {Phase{}, std::min(upkeep(v), in_dn), n.energy, true};
}

} // namespace capy::power
