/**
 * @file
 * Property tests for the closed-form transient solver: agreement with
 * fine-step RK4 integration across a parameter sweep, crossing-time
 * correctness, monotonicity, and clamping behaviour; and the
 * soundness of stepMisses(), the power walker's skip rule.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <iomanip>
#include <tuple>
#include <vector>

#include "power/solver.hh"
#include "power/units.hh"
#include "sim/random.hh"

using namespace capy;
using namespace capy::power;

namespace
{

/** Reference RK4 integration of dE/dt = P - 2E/(RC), clamped at 0. */
double
rk4Advance(double e0, const Phase &ph, double dt, int steps = 20000)
{
    auto f = [&](double e) {
        double leak = std::isinf(ph.leakRes)
                          ? 0.0
                          : 2.0 * e / (ph.leakRes * ph.capacitance);
        return ph.power - leak;
    };
    double h = dt / steps;
    double e = e0;
    for (int i = 0; i < steps; ++i) {
        double k1 = f(e);
        double k2 = f(e + 0.5 * h * k1);
        double k3 = f(e + 0.5 * h * k2);
        double k4 = f(e + h * k3);
        e += h / 6.0 * (k1 + 2 * k2 + 2 * k3 + k4);
        if (e < 0.0)
            e = 0.0;
    }
    return e;
}

} // namespace

TEST(Solver, LosslessChargeIsLinear)
{
    Phase ph{1e-3, 1e-3, kNever};
    EXPECT_DOUBLE_EQ(advanceEnergy(0.0, ph, 10.0), 0.01);
    EXPECT_DOUBLE_EQ(advanceEnergy(5.0, ph, 10.0), 5.01);
}

TEST(Solver, LosslessDischargeClampsAtZero)
{
    Phase ph{-1e-3, 1e-3, kNever};
    EXPECT_DOUBLE_EQ(advanceEnergy(0.005, ph, 10.0), 0.0);
    EXPECT_DOUBLE_EQ(advanceEnergy(0.02, ph, 10.0), 0.01);
}

TEST(Solver, ZeroDtIsIdentity)
{
    Phase ph{5e-3, 1e-3, 1e6};
    EXPECT_DOUBLE_EQ(advanceEnergy(0.123, ph, 0.0), 0.123);
}

TEST(Solver, LeakOnlyDecaysExponentially)
{
    // E(t) = E0 exp(-2t/(RC)); RC = 1e6 * 1e-6 = 1, tau = 0.5.
    Phase ph{0.0, 1e-6, 1e6};
    double e = advanceEnergy(1.0, ph, 0.5);
    EXPECT_NEAR(e, std::exp(-1.0), 1e-12);
}

TEST(Solver, SteadyStateEnergyFormula)
{
    Phase ph{2e-3, 1e-3, 1e5};
    // Einf = P R C / 2 = 2e-3 * 1e5 * 1e-3 / 2 = 0.1 J.
    EXPECT_DOUBLE_EQ(steadyStateEnergy(ph), 0.1);
    Phase lossless{1e-3, 1e-3, kNever};
    EXPECT_TRUE(std::isinf(steadyStateEnergy(lossless)));
    Phase drain{-1e-3, 1e-3, kNever};
    EXPECT_DOUBLE_EQ(steadyStateEnergy(drain), 0.0);
}

TEST(Solver, TimeToEnergyRoundTripsAdvance)
{
    Phase ph{3e-3, 2.2e-3, 5e5};
    double e0 = 0.001;
    double target = 0.02;
    double t = timeToEnergy(e0, target, ph);
    ASSERT_TRUE(std::isfinite(t));
    EXPECT_NEAR(advanceEnergy(e0, ph, t), target, target * 1e-9);
}

TEST(Solver, TimeToEnergyUnreachableTargets)
{
    // Steady state at 0.1 J; a 0.2 J target is unreachable.
    Phase ph{2e-3, 1e-3, 1e5};
    EXPECT_TRUE(std::isinf(timeToEnergy(0.0, 0.2, ph)));
    // Target behind a rising trajectory is unreachable.
    EXPECT_TRUE(std::isinf(timeToEnergy(0.05, 0.01, ph)));
    // Discharging: target above start unreachable.
    Phase drain{-1e-3, 1e-3, kNever};
    EXPECT_TRUE(std::isinf(timeToEnergy(0.01, 0.02, drain)));
}

TEST(Solver, TimeToEnergyAtTargetIsZero)
{
    Phase ph{1e-3, 1e-3, 1e6};
    EXPECT_DOUBLE_EQ(timeToEnergy(0.5, 0.5, ph), 0.0);
}

TEST(Solver, DischargeToZeroCrossing)
{
    Phase ph{-2e-3, 1e-3, kNever};
    double t = timeToEnergy(0.01, 0.0, ph);
    EXPECT_NEAR(t, 5.0, 1e-12);
}

TEST(Solver, DischargeWithLeakReachesZeroSooner)
{
    Phase lossless{-2e-3, 1e-3, kNever};
    Phase leaky{-2e-3, 1e-3, 1e4};
    double t_ideal = timeToEnergy(0.01, 0.001, lossless);
    double t_leaky = timeToEnergy(0.01, 0.001, leaky);
    ASSERT_TRUE(std::isfinite(t_leaky));
    EXPECT_LT(t_leaky, t_ideal);
}

/** Sweep: closed form must agree with RK4 across the parameter grid. */
class SolverSweep
    : public ::testing::TestWithParam<std::tuple<double, double, double>>
{};

TEST_P(SolverSweep, MatchesRk4)
{
    auto [power, cap, leak] = GetParam();
    Phase ph{power, cap, leak};
    double e0 = 0.5 * cap * 2.0 * 2.0;  // start at 2 V
    double dt = 5.0;
    double closed = advanceEnergy(e0, ph, dt);
    double numeric = rk4Advance(e0, ph, dt);
    double scale = std::max({closed, numeric, 1e-9});
    EXPECT_NEAR(closed, numeric, scale * 1e-5)
        << "P=" << power << " C=" << cap << " R=" << leak;
}

INSTANTIATE_TEST_SUITE_P(
    Grid, SolverSweep,
    ::testing::Combine(
        ::testing::Values(-10e-3, -1e-3, 0.0, 1e-3, 10e-3),
        ::testing::Values(100e-6, 1e-3, 10e-3, 67.5e-3),
        ::testing::Values(1e4, 1e6, kNever)));

/** Crossing times found by the solver agree with bisection on RK4. */
class CrossingSweep
    : public ::testing::TestWithParam<std::tuple<double, double>>
{};

TEST_P(CrossingSweep, CrossingConsistentWithTrajectory)
{
    auto [power, leak] = GetParam();
    Phase ph{power, 4.7e-3, leak};
    double e0 = 0.01;
    double einf = steadyStateEnergy(ph);
    // Pick a target guaranteed between e0 and the asymptote.
    double target;
    if (std::isinf(einf)) {
        target = power > 0 ? e0 * 2.0 : e0 * 0.5;
    } else if (einf > e0) {
        target = e0 + 0.5 * (einf - e0);
    } else {
        target = einf + 0.5 * (e0 - einf);
    }
    if (power == 0.0 && std::isinf(leak))
        return;  // static trajectory, nothing to cross
    double t = timeToEnergy(e0, target, ph);
    ASSERT_TRUE(std::isfinite(t)) << "target " << target;
    double e_at = advanceEnergy(e0, ph, t);
    EXPECT_NEAR(e_at, target, std::abs(target) * 1e-9 + 1e-15);
    // Before the crossing the trajectory must not have reached it.
    double e_before = advanceEnergy(e0, ph, t * 0.5);
    if (target > e0)
        EXPECT_LT(e_before, target);
    else
        EXPECT_GT(e_before, target);
}

INSTANTIATE_TEST_SUITE_P(
    Grid, CrossingSweep,
    ::testing::Combine(::testing::Values(-5e-3, -1e-4, 1e-4, 5e-3),
                       ::testing::Values(1e4, 5e5, kNever)));

TEST(Solver, TargetAboveSteadyStateWithLeakIsNever)
{
    // Einf = P R C / 2 = 0.1 J; from below, anything at or above the
    // asymptote is unreachable — including the asymptote itself,
    // which is only approached asymptotically.
    Phase ph{2e-3, 1e-3, 1e5};
    ASSERT_DOUBLE_EQ(steadyStateEnergy(ph), 0.1);
    EXPECT_TRUE(std::isinf(timeToEnergy(0.02, 0.15, ph)));
    EXPECT_TRUE(std::isinf(timeToEnergy(0.02, 0.1, ph)));
    // Just below the asymptote is reachable, and consistent.
    double t = timeToEnergy(0.02, 0.0999, ph);
    ASSERT_TRUE(std::isfinite(t));
    EXPECT_NEAR(advanceEnergy(0.02, ph, t), 0.0999, 1e-12);
}

TEST(Solver, StartingAtSteadyStateNeverMoves)
{
    Phase ph{2e-3, 1e-3, 1e5};
    double einf = steadyStateEnergy(ph);
    EXPECT_TRUE(std::isinf(timeToEnergy(einf, 0.05, ph)));
    EXPECT_TRUE(std::isinf(timeToEnergy(einf, 0.15, ph)));
    EXPECT_NEAR(advanceEnergy(einf, ph, 100.0), einf, einf * 1e-12);
}

TEST(Solver, LosslessDrainReachesZeroExactly)
{
    // dE/dt = -P: crossing time is e0/|P|, after which the energy
    // clamps at zero and stays there.
    Phase drain{-4e-3, 1e-3, kNever};
    double t = timeToEnergy(0.02, 0.0, drain);
    EXPECT_DOUBLE_EQ(t, 5.0);
    EXPECT_DOUBLE_EQ(advanceEnergy(0.02, drain, t), 0.0);
    EXPECT_DOUBLE_EQ(advanceEnergy(0.02, drain, 2.0 * t), 0.0);
    EXPECT_DOUBLE_EQ(advanceEnergy(0.0, drain, 1.0), 0.0);
}

TEST(Solver, LeakyDischargeCrossesZeroAndClamps)
{
    // With P < 0 and finite leak the asymptote is below zero, so the
    // trajectory crosses E = 0 in finite time and clamps there.
    Phase ph{-1e-3, 1e-3, 1e5};
    double t = timeToEnergy(0.01, 0.0, ph);
    ASSERT_TRUE(std::isfinite(t));
    EXPECT_NEAR(advanceEnergy(0.01, ph, t), 0.0, 1e-12);
    EXPECT_DOUBLE_EQ(advanceEnergy(0.01, ph, t * 2.0), 0.0);
}

TEST(Solver, ZeroPowerTrajectories)
{
    // Lossless with no power: static forever.
    Phase idle{0.0, 1e-3, kNever};
    EXPECT_TRUE(std::isinf(timeToEnergy(0.01, 0.02, idle)));
    EXPECT_TRUE(std::isinf(timeToEnergy(0.01, 0.005, idle)));
    EXPECT_DOUBLE_EQ(advanceEnergy(0.01, idle, 1e6), 0.01);
    // Leak only: decays toward zero, upward targets unreachable.
    Phase leak{0.0, 1e-3, 1e5};
    EXPECT_TRUE(std::isinf(timeToEnergy(0.01, 0.02, leak)));
    double t = timeToEnergy(0.01, 0.005, leak);
    ASSERT_TRUE(std::isfinite(t));
    EXPECT_NEAR(advanceEnergy(0.01, leak, t), 0.005, 1e-15);
}

TEST(Solver, TargetWithinToleranceOfStartIsImmediate)
{
    Phase ph{1e-3, 1e-3, 1e5};
    EXPECT_DOUBLE_EQ(timeToEnergy(1.0, 1.0 + 1e-13, ph), 0.0);
    EXPECT_DOUBLE_EQ(timeToEnergy(1.0, 1.0 - 1e-13, ph), 0.0);
    EXPECT_DOUBLE_EQ(timeToEnergy(0.0, 0.0, ph), 0.0);
}

TEST(Solver, MonotoneInTime)
{
    Phase ph{1e-3, 1e-3, 1e5};
    double prev = 0.0;
    for (int i = 1; i <= 100; ++i) {
        double e = advanceEnergy(0.0, ph, double(i));
        EXPECT_GE(e, prev);
        prev = e;
    }
}

TEST(Solver, SemigroupProperty)
{
    // advance(e, t1+t2) == advance(advance(e, t1), t2)
    Phase ph{2e-3, 3.3e-3, 2e5};
    double e0 = 0.004;
    double one_shot = advanceEnergy(e0, ph, 7.0);
    double two_step = advanceEnergy(advanceEnergy(e0, ph, 3.0), ph, 4.0);
    EXPECT_NEAR(one_shot, two_step, one_shot * 1e-12);
}

namespace
{

/** Log-uniform draw from [lo, hi). */
double
logUniform(sim::Rng &rng, double lo, double hi)
{
    return std::exp(rng.uniform(std::log(lo), std::log(hi)));
}

/** @p x stepped @p k ulps toward @p dir (k may be 0). */
double
ulpsFrom(double x, int k, double dir)
{
    for (int i = 0; i < k; ++i)
        x = std::nextafter(x, dir);
    return x;
}

/** A random phase, with the adversarial kinds over-represented:
 *  lossless, zero power, and |einf| far above any stored energy. */
Phase
randomPhase(sim::Rng &rng)
{
    Phase ph;
    ph.capacitance = logUniform(rng, 1e-6, 1.0);
    switch (rng.uniformInt(0, 5)) {
      case 0:  // lossless
        break;
      case 1:  // leak only
        ph.leakRes = logUniform(rng, 1e2, 1e10);
        break;
      case 2:  // |einf| >> e0: a long time constant, strong drive
        ph.leakRes = logUniform(rng, 1e8, 1e12);
        ph.power = (rng.chance(0.5) ? 1.0 : -1.0) *
                   logUniform(rng, 1e-3, 1.0);
        break;
      default:
        ph.leakRes = logUniform(rng, 1e2, 1e10);
        break;
    }
    if (ph.power == 0.0 && rng.chance(0.8))
        ph.power = (rng.chance(0.5) ? 1.0 : -1.0) *
                   logUniform(rng, 1e-8, 1e-1);
    return ph;
}

} // namespace

TEST(StepMisses, NeverClaimsAReachedTarget)
{
    // stepMisses() lets the power walker skip a crossing solve; it is
    // sound only if every target it calls missed has a solved
    // crossing time beyond the step. Targets sit where rounding
    // decides: within 64 ulps of the step's end, within kRelTol
    // (1e-12) of its start, at the zero clamp, and at random.
    sim::Rng rng(20180324);
    std::uint64_t checked = 0;  ///< random targets
    std::uint64_t missed = 0;   ///< random targets called missed
    for (int i = 0; i < 20000; ++i) {
        const Phase ph = randomPhase(rng);
        const double e0 =
            rng.chance(0.1) ? 0.0 : logUniform(rng, 1e-9, 1.0);
        // Long steps clamp a discharge at zero.
        const double dt = logUniform(rng, 1e-6, 1e5);
        const double e1 = advanceEnergy(e0, ph, dt);

        std::vector<double> targets = {0.0, e0, e1};
        for (int k : {1, 2, 3, 4, 8, 16, 32, 64,
                      int(rng.uniformInt(5, 63))}) {
            targets.push_back(ulpsFrom(e1, k, kNever));
            targets.push_back(ulpsFrom(e1, k, 0.0));
        }
        for (double f : {0.1, 0.5, 0.9, 0.99, 1.01, 1.5, 2.0, 3.0}) {
            targets.push_back(e0 * (1.0 + f * 1e-12));
            targets.push_back(e0 * (1.0 - f * 1e-12));
        }
        // Last: random targets, which are mostly clear of the step.
        const std::size_t n_edge = targets.size();
        for (int j = 0; j < 4; ++j)
            targets.push_back(rng.uniform(0.0, 2.0 * std::max(e0, e1)));

        for (std::size_t j = 0; j < targets.size(); ++j) {
            const double target = targets[j];
            if (target < 0.0)
                continue;
            checked += j >= n_edge;
            if (!stepMisses(e0, e1, target, ph))
                continue;
            missed += j >= n_edge;
            ASSERT_GT(timeToEnergy(e0, target, ph), dt)
                << "case " << i << std::setprecision(17) << ": e0=" << e0
                << " e1=" << e1 << " target=" << target << " dt=" << dt
                << " P=" << ph.power << " R=" << ph.leakRes
                << " C=" << ph.capacitance;
        }
    }
    // The predicate must also skip: most random targets are clear.
    EXPECT_GT(missed, checked / 2);
}

TEST(StepMisses, HandPickedEdges)
{
    // Lossless charge: the step ends at 2e-3; one just past is not
    // provably missed, one well past is.
    const Phase charge{1e-3, 1e-3};
    EXPECT_FALSE(stepMisses(1e-3, 2e-3, 2e-3 * (1 + 1e-15), charge));
    EXPECT_TRUE(stepMisses(1e-3, 2e-3, 2.1e-3, charge));
    // Behind the start within kRelTol: timeToEnergy() answers 0.
    EXPECT_FALSE(stepMisses(1e-3, 2e-3, 1e-3 * (1 - 5e-13), charge));
    // A discharge clamped at zero reaches every level below e0.
    const Phase drain{-1.0, 1e-3, 1e5};
    const double e1 = advanceEnergy(1e-3, drain, 1.0);
    EXPECT_EQ(e1, 0.0);
    EXPECT_FALSE(stepMisses(1e-3, e1, 0.0, drain));
    EXPECT_FALSE(stepMisses(1e-3, e1, 5e-4, drain));
    EXPECT_TRUE(stepMisses(1e-3, e1, 2e-3, drain));
    // Zero power, lossless: the node stays put.
    const Phase idle{0.0, 1e-3};
    EXPECT_TRUE(stepMisses(1e-3, 1e-3, 0.5e-3, idle));
    EXPECT_FALSE(stepMisses(1e-3, 1e-3, 1e-3, idle));
}
