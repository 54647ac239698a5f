/**
 * @file
 * Closed-form transient solver for capacitor energy under piecewise-
 * constant conditions.
 *
 * Between simulation events a storage node sees a constant net power
 * P (harvest in minus load out) and a parallel leakage resistance R
 * across total capacitance C. Stored energy then obeys
 *
 *     dE/dt = P - V^2/R = P - 2E/(R C)
 *
 * a linear ODE with solution E(t) = Einf + (E0 - Einf) e^{-t/tau},
 * tau = R C / 2, Einf = P R C / 2. Both the trajectory and crossing
 * times for energy targets are available in closed form, which lets
 * the event-driven simulator jump directly to charge-complete and
 * brown-out instants without numeric integration.
 */

#ifndef CAPY_POWER_SOLVER_HH
#define CAPY_POWER_SOLVER_HH

#include <array>
#include <bit>
#include <cstdint>
#include <limits>

#include "power/booster.hh"

namespace capy::power
{

/** Positive infinity, used for "never" crossing times. */
inline constexpr double kNever = std::numeric_limits<double>::infinity();

/**
 * Constant-condition phase for the storage node.
 */
struct Phase
{
    double power = 0.0;        ///< net power into the node, W (can be <0)
    double capacitance = 0.0;  ///< total node capacitance, F
    /** Parallel leakage resistance, ohm; infinity = lossless. */
    double leakRes = std::numeric_limits<double>::infinity();
};

/**
 * exp(-dt / tau), evaluated and counted in sim::WorkCounts::exps:
 * an ExpCache miss, or an advanceEnergy() call without a memo.
 */
double uncachedExp(double dt, double tau);

/**
 * Small direct-mapped memo for exp(-dt / tau).
 *
 * The power-system hot path evaluates the same exponentials repeatedly
 * for unchanged (dt, tau) pairs: back-to-back workloads of one fixed
 * duration on an unchanged node each step the same interval under the
 * same time constant, and a duty cycle (CapySat's sampling MCU: a
 * 70 ms sample, then a 1 s sleep) alternates a few such pairs. On the
 * Fig. 8 GRC-Fast Fixed cell (seed 20180324), where every walked
 * phase looks up one exp, 294,561 of 294,764 lookups hit.
 * Entries are keyed on the exact (dt, tau) bit patterns and store the
 * exp value computed the normal way, so a hit returns bit-identical
 * results — the memo can change nothing observable. A miss counts in
 * sim::WorkCounts::exps.
 */
class ExpCache
{
  public:
    /** exp(-dt / tau), memoized on the exact (dt, tau) pair. */
    double
    expNegRatio(double dt, double tau)
    {
        Entry &e = entries[slotFor(dt, tau)];
        if (e.dt == dt && e.tau == tau)
            return e.value;
        e.dt = dt;
        e.tau = tau;
        e.value = uncachedExp(dt, tau);
        return e.value;
    }

  private:
    struct Entry
    {
        double dt = -1.0;  ///< never matches: callers pass dt >= 0
        double tau = -1.0;
        double value = 0.0;
    };

    /**
     * A slot that depends on every bit of both keys: durations such
     * as 1 s, 10 s and 540 s have all-zero low mantissa bits, so a
     * slot read from those bits put them all in one slot, and a duty
     * cycle's pairs evicted each other on every lookup. The 128-bit
     * product by an odd constant, folded, carries each input bit into
     * the low bits.
     */
    static std::size_t
    slotFor(double dt, double tau)
    {
        const std::uint64_t key =
            std::bit_cast<std::uint64_t>(dt) ^
            std::rotl(std::bit_cast<std::uint64_t>(tau), 32);
        const unsigned __int128 p =
            static_cast<unsigned __int128>(key) * 0x9e3779b97f4a7c15u;
        const auto h = static_cast<std::uint64_t>(p) ^
                       static_cast<std::uint64_t>(p >> 64);
        return std::size_t(h & (kSlots - 1));
    }

    static constexpr std::size_t kSlots = 16;
    std::array<Entry, kSlots> entries{};
};

/**
 * Energy after @p dt seconds starting from @p e0 joules under @p ph.
 * Clamped at zero (a capacitor cannot hold negative energy; once
 * empty, negative net power has nothing left to remove).
 *
 * @param memo optional exp memo for hot paths that revisit identical
 *        (dt, tau) pairs; results are identical with or without it.
 */
double advanceEnergy(double e0, const Phase &ph, double dt,
                     ExpCache *memo = nullptr);

/**
 * Time for stored energy to reach @p target joules from @p e0 under
 * @p ph.
 *
 * @return 0 when already at the target (within one part in 1e12),
 *         kNever when the trajectory never reaches it, otherwise the
 *         positive crossing time in seconds.
 */
double timeToEnergy(double e0, double target, const Phase &ph);

/**
 * Whether a step of @p ph from @p e0 that ends at @p e1 (what
 * advanceEnergy() returns for it) certainly misses @p target: the
 * target lies outside [min(e0, e1), max(e0, e1)] by more than the
 * rounding of advanceEnergy() and timeToEnergy() together. Then
 * timeToEnergy(e0, target, ph) exceeds the step's dt, so a walker
 * can take the whole step without solving for the crossing. false
 * means the target may be reached: solve.
 */
bool stepMisses(double e0, double e1, double target, const Phase &ph);

/**
 * Asymptotic energy of the phase (P R C / 2); kNever for a lossless
 * phase with positive power.
 */
double steadyStateEnergy(const Phase &ph);

/**
 * The smallest energy e >= 0 whose voltage std::sqrt(2.0 * e /
 * @p capacitance) is at least @p v, so that `e >= energyReaching(v,
 * C)` and `std::sqrt(2.0 * e / C) >= v` agree for every double e >= 0.
 * The division and the sqrt are correctly rounded, so the voltage is
 * monotone in e; the search steps ulps from 0.5 C v^2. 0 for v <= 0.
 */
double energyReaching(double v, double capacitance);

/** A storage node as phaseStep() sees it. */
struct StepNode
{
    double energy = 0.0;       ///< J
    double capacitance = 0.0;  ///< F
    double leakRes = std::numeric_limits<double>::infinity();  ///< ohm
    double top = 0.0;          ///< charge target, V
    double draw = 0.0;         ///< W for the load and overhead
    bool fed = false;          ///< the input booster feeds it
    bool full = false;         ///< counts as charged to its top
};

/** A constant-power phase up to a level, or a park at one. */
struct PhaseStep
{
    Phase phase{};        ///< net power into the node
    double input = 0.0;   ///< W the input booster delivers meanwhile
    double level = 0.0;   ///< J where it ends (0: empty) or parks
    bool parked = false;  ///< pinned, empty, or pushed back both ways
};

/**
 * The phase step of both power walkers, under a harvester delivering
 * @p p_harvest W at @p v_harvest V (post-limiter). The motion changes
 * at 0, at the top and, for a fed node, at the input booster's regime
 * breakpoints. Each side of the node's voltage is read mid-way to its
 * nearest level, so a node on a breakpoint sees the regime it would
 * move into, and a node that both sides push back parks. A full node
 * is pinned at its top while inputChargePower() there covers its draw
 * plus leakage. A node above its top (a lowered charge ceiling) is
 * neither fed nor pinned: it drains by its draw plus leakage down to
 * the top. A parked node takes in its draw plus leakage, or when
 * empty what the booster delivers there.
 */
PhaseStep phaseStep(const InputBoosterSpec &booster, double p_harvest,
                    double v_harvest, const StepNode &node);

} // namespace capy::power

#endif // CAPY_POWER_SOLVER_HH
