/**
 * @file
 * Property and fuzz tests across layers: power-system invariants
 * under randomized operation sequences, energy-conservation checks,
 * crossing-time consistency (single-node and federated), kernel
 * progress under random harvest conditions, and scoreboard accounting
 * invariants.
 */

#include <gtest/gtest.h>

#include <cmath>
#include <memory>
#include <string>
#include <vector>

#include "core/runtime.hh"
#include "dev/device.hh"
#include "env/light.hh"
#include "env/scoring.hh"
#include "power/federated.hh"
#include "power/parts.hh"
#include "power/power_system.hh"
#include "power/solver.hh"
#include "rt/kernel.hh"
#include "sim/random.hh"
#include "sim/simulator.hh"
#include "sim/work.hh"

using namespace capy;
using namespace capy::power;

namespace
{

/** CapySat's sampling-MCU harvester: two body panels under orbit
 *  light, whose 540 s change grid does not contain sunset (3390 s). */
std::unique_ptr<Harvester>
orbitSolar()
{
    env::OrbitLight orbit;
    return std::make_unique<SolarArray>(2, 25e-3 * 0.4, 2.5,
                                        orbit.illumination(),
                                        orbit.changePeriod());
}

/** Build a randomized 2-3 bank power system. */
std::unique_ptr<PowerSystem>
randomSystem(sim::Rng &rng)
{
    PowerSystem::Spec spec;
    double harvest = rng.uniform(0.5e-3, 20e-3);
    auto ps = std::make_unique<PowerSystem>(
        spec, std::make_unique<RegulatedSupply>(harvest, 3.3));
    ps->addBank("base",
                parts::x5r100uF().parallel(rng.uniformInt(1, 8)));
    SwitchSpec sw;
    sw.kind = rng.chance(0.5) ? SwitchKind::NormallyOpen
                              : SwitchKind::NormallyClosed;
    ps->addSwitchedBank(
        "big", parts::edlc7_5mF().parallel(rng.uniformInt(1, 4)), sw);
    if (rng.chance(0.3)) {
        ps->addSwitchedBank("mid",
                            parts::tant1000uF().parallel(
                                rng.uniformInt(1, 3)),
                            SwitchSpec{});
    }
    return ps;
}

} // namespace

/** Fuzz the PowerSystem with random operation sequences; invariants
 *  must hold at every step. */
class PowerSystemFuzz : public ::testing::TestWithParam<int>
{};

TEST_P(PowerSystemFuzz, InvariantsUnderRandomOperation)
{
    sim::Rng rng(std::uint64_t(GetParam()), 0xF00D);
    auto ps = randomSystem(rng);
    sim::Time now = 0.0;
    bool rail_on = false;

    for (int step = 0; step < 300; ++step) {
        double dt = rng.exponential(rng.chance(0.2) ? 60.0 : 2.0);
        now += dt;
        ps->advanceTo(now);

        switch (rng.uniformInt(0, 5)) {
          case 0:
            rail_on = !rail_on;
            ps->setRailEnabled(rail_on);
            break;
          case 1:
            if (rail_on)
                ps->setRailLoad(rng.uniform(0.0, 30e-3));
            break;
          case 2:
            if (rail_on) {
                int idx = int(rng.uniformInt(
                    0, std::uint64_t(ps->numBanks() - 1)));
                if (ps->bankSwitch(idx))
                    ps->commandSwitch(idx, rng.chance(0.5));
            }
            break;
          case 3:
            if (rng.chance(0.5))
                ps->setChargeCeiling(rng.uniform(1.8, 2.9));
            else
                ps->clearChargeCeiling();
            break;
          default:
            break;
        }

        // --- invariants ---
        double v = ps->storageVoltage();
        ASSERT_GE(v, 0.0) << "step " << step;
        ASSERT_LE(v, ps->systemSpec().maxStorageVoltage + 1e-6)
            << "storage never exceeds the limiter target";
        for (int i = 0; i < ps->numBanks(); ++i) {
            ASSERT_GE(ps->bank(i).energy(), 0.0);
            double rated = ps->bank(i).spec().ratedVoltage;
            ASSERT_LE(ps->bank(i).voltage(), rated + 1e-6)
                << "bank " << i << " above rating at step " << step;
        }
        const auto &st = ps->stats();
        ASSERT_GE(st.harvestedIn, -1e-9);
        ASSERT_GE(st.drainedOut, -1e-9);
        ASSERT_NEAR(ps->ledgerResidual(), 0.0,
                    1e-6 * st.harvestedIn + 1e-12)
            << "energy ledger out of balance at step " << step;
    }
}

INSTANTIATE_TEST_SUITE_P(Seeds, PowerSystemFuzz,
                         ::testing::Range(1, 21));

/** Energy conservation: harvested = stored + drained + leaked, over
 *  randomized charge/discharge scenarios. */
class ConservationSweep : public ::testing::TestWithParam<int>
{};

TEST_P(ConservationSweep, EnergyBalances)
{
    sim::Rng rng(std::uint64_t(GetParam()), 0xBEEF);
    PowerSystem::Spec spec;
    auto ps = std::make_unique<PowerSystem>(
        spec, std::make_unique<RegulatedSupply>(
                  rng.uniform(1e-3, 15e-3), 3.3));
    ps->addBank("a", parts::x5r100uF().parallel(rng.uniformInt(2, 6)));
    ps->addBank("b", parts::edlc7_5mF());

    double initial = ps->activeEnergy();
    sim::Time now = 0.0;
    for (int i = 0; i < 50; ++i) {
        now += rng.exponential(5.0);
        ps->advanceTo(now);
        if (rng.chance(0.4)) {
            bool on = rng.chance(0.5);
            ps->setRailEnabled(on);
            if (on)
                ps->setRailLoad(rng.uniform(0.0, 25e-3));
        }
    }
    ps->advanceTo(now + 10.0);

    const auto &st = ps->stats();
    double stored = ps->activeEnergy() - initial;
    double balance = st.harvestedIn - st.drainedOut - st.leaked;
    EXPECT_NEAR(balance, stored,
                std::max(1e-9, st.harvestedIn * 1e-6))
        << "harvested - drained - leaked must equal the change in "
           "stored energy";
}

/** The ledger across harvester segments: two hard-wired banks on the
 *  orbit-light board, from boosted charge in sunlight through limiter
 *  pinning, sunset, discharge in eclipse and sunrise. */
TEST_P(ConservationSweep, OrbitLightBalances)
{
    sim::Rng rng(std::uint64_t(GetParam()), 0x0B17);
    PowerSystem::Spec spec;
    auto ps = std::make_unique<PowerSystem>(spec, orbitSolar());
    ps->addBank("a", parts::cph3225a().parallel(3));
    ps->addBank("b", parts::x5r100uF().parallel(4));
    double v0 = rng.uniform(0.2, 2.9);
    ps->setBankVoltageForTest(0, v0);
    ps->setBankVoltageForTest(1, v0);

    // One orbit starts sunlit: sunset at 3390 s, sunrise at 5550 s.
    double initial = ps->activeEnergy();
    sim::Time now = 0.0;
    bool pinned = false, dark_drain = false;
    while (now < 6000.0) {
        now += rng.exponential(40.0);
        ps->advanceTo(now);
        pinned |= ps->isFull();
        dark_drain |= ps->harvesterRef().power(now) == 0.0 &&
                      ps->railEnabled() && ps->railLoad() > 0.0;
        if (rng.chance(0.4)) {
            bool on = rng.chance(0.5);
            ps->setRailEnabled(on);
            if (on)
                ps->setRailLoad(rng.uniform(0.0, 4e-3));
        }
    }
    EXPECT_TRUE(pinned) << "the walk never reached the limiter pin";
    EXPECT_TRUE(dark_drain) << "the walk never drained in eclipse";

    const auto &st = ps->stats();
    double stored = ps->activeEnergy() - initial;
    double balance = st.harvestedIn - st.drainedOut - st.leaked;
    EXPECT_NEAR(balance, stored,
                std::max(1e-9, st.harvestedIn * 1e-6))
        << "harvested - drained - leaked must equal the change in "
           "stored energy across harvester segments";
}

/** The ledger with latch-switched banks: switch commands and latch
 *  reversions connect banks at different voltages, and the energy the
 *  charge sharing dissipates closes the balance over every bank. */
TEST_P(ConservationSweep, SwitchedBanksBalance)
{
    sim::Rng rng(std::uint64_t(GetParam()), 0x5A17);
    auto ps = randomSystem(rng);
    for (int i = 0; i < ps->numBanks(); ++i)
        ps->setBankVoltageForTest(i, rng.uniform(0.0, 2.9));

    sim::Time now = 0.0;
    bool rail_on = false;
    for (int i = 0; i < 60; ++i) {
        // Now and then long enough off for a latch to revert.
        now += rng.exponential(rng.chance(0.1) ? 200.0 : 5.0);
        ps->advanceTo(now);
        if (rng.chance(0.3)) {
            rail_on = !rail_on;
            ps->setRailEnabled(rail_on);
            if (rail_on)
                ps->setRailLoad(rng.uniform(0.0, 25e-3));
        } else if (rail_on && rng.chance(0.5)) {
            int idx = int(
                rng.uniformInt(1, std::uint64_t(ps->numBanks() - 1)));
            ps->commandSwitch(idx, !ps->bankActive(idx));
        }
    }
    ps->advanceTo(now + 10.0);

    const auto &st = ps->stats();
    EXPECT_GT(st.sharingLoss, 0.0) << "no bank joined at another voltage";
    // The preset bank energies are the ledger's opening balance.
    EXPECT_NEAR(ps->ledgerResidual(), 0.0,
                std::max(1e-9, st.harvestedIn * 1e-6))
        << "harvested - drained - leaked - shared must equal the change "
           "in energy stored across all banks";
}

INSTANTIATE_TEST_SUITE_P(Seeds, ConservationSweep,
                         ::testing::Range(100, 120));

/** timeToVoltage predictions must match the actual trajectory for
 *  randomized conditions. */
class CrossingConsistency : public ::testing::TestWithParam<int>
{};

TEST_P(CrossingConsistency, PredictionMatchesAdvance)
{
    sim::Rng rng(std::uint64_t(GetParam()), 0xCAFE);
    PowerSystem::Spec spec;
    double harvest = rng.uniform(0.5e-3, 12e-3);
    auto ps = std::make_unique<PowerSystem>(
        spec, std::make_unique<RegulatedSupply>(harvest, 3.3));
    ps->addBank("b", parts::edlc7_5mF().parallel(rng.uniformInt(1, 3)));
    ps->setBankVoltageForTest(0, rng.uniform(0.0, 2.9));
    if (rng.chance(0.5)) {
        ps->setRailEnabled(true);
        ps->setRailLoad(rng.uniform(0.0, 20e-3));
    }

    double v0 = ps->storageVoltage();
    double target = rng.uniform(0.2, 2.95);
    sim::Time t = ps->timeToVoltage(target);
    if (!std::isfinite(t))
        return;  // legitimately unreachable under these conditions
    ps->advanceTo(t);
    EXPECT_NEAR(ps->storageVoltage(), target, 2e-3)
        << "v0=" << v0 << " harvest=" << harvest;
}

INSTANTIATE_TEST_SUITE_P(Seeds, CrossingConsistency,
                         ::testing::Range(200, 240));

/** Predict-then-advance on a time-varying harvester: from start times
 *  just before sunset, advancing to the predicted brown-out instant
 *  must land on the brown-out floor, at either starting charge. */
TEST(CrossingConsistency, OrbitLightPredictThenAdvance)
{
    constexpr int kStarts = 1000;
    for (double v0 : {1.2, 2.0}) {
        int misses = 0;
        std::string first;
        for (int i = 0; i < kStarts; ++i) {
            sim::Time start = 3241.0 + 147.0 * i / kStarts;
            PowerSystem::Spec spec;
            PowerSystem ps(spec, orbitSolar());
            ps.addBank("sample", parts::cph3225a().parallel(3));
            ps.advanceTo(start);
            ps.setBankVoltageForTest(0, v0);
            ps.setRailEnabled(true);
            ps.setRailLoad(1e-3);

            sim::Time dt = ps.timeToBrownout();
            ASSERT_TRUE(std::isfinite(dt)) << "start " << start;
            ps.advanceTo(start + dt);
            double v = ps.storageVoltage();
            double floor_v = ps.brownoutVoltageNow();
            if (std::abs(v - floor_v) > 1e-3 && misses++ == 0)
                first = "start " + std::to_string(start) + " landed at " +
                        std::to_string(v) + " V, floor " +
                        std::to_string(floor_v) + " V";
        }
        EXPECT_EQ(misses, 0) << "v0=" << v0 << " V, " << misses << " of "
                             << kStarts << " starts missed; first: "
                             << first;
    }
}

/** Kernel progress: under any harvest level, a feasible looping app
 *  keeps making forward progress with exactly-once body semantics. */
class KernelHarvestSweep : public ::testing::TestWithParam<double>
{};

TEST_P(KernelHarvestSweep, ForwardProgressAndExactlyOnce)
{
    double harvest_mw = GetParam();
    sim::Simulator simulator;
    PowerSystem::Spec spec;
    auto ps = std::make_unique<PowerSystem>(
        spec, std::make_unique<RegulatedSupply>(harvest_mw * 1e-3,
                                                3.3));
    ps->addBank("b", parts::x5r100uF().parallel(6));
    dev::Device device(simulator, std::move(ps), dev::msp430fr5969(),
                       dev::Device::PowerMode::Intermittent);

    int a_runs = 0, b_runs = 0;
    rt::App app;
    rt::Task *tb = nullptr;
    rt::Task *ta = app.addTask("a", 2e-3, 0.0,
                               [&](rt::Kernel &) -> const rt::Task * {
                                   ++a_runs;
                                   return tb;
                               });
    tb = app.addTask("b", 3e-3, 1e-3,
                     [&](rt::Kernel &) -> const rt::Task * {
                         ++b_runs;
                         return ta;
                     });
    rt::Kernel kernel(device, app);
    kernel.start();
    simulator.runUntil(600.0);

    // Strict alternation: bodies run exactly once per completion.
    EXPECT_GE(a_runs, 10);
    EXPECT_TRUE(a_runs == b_runs || a_runs == b_runs + 1)
        << "a=" << a_runs << " b=" << b_runs;
    EXPECT_EQ(kernel.stats().taskCompletions,
              std::uint64_t(a_runs + b_runs));
}

INSTANTIATE_TEST_SUITE_P(HarvestLevels, KernelHarvestSweep,
                         ::testing::Values(0.7, 1.5, 3.0, 6.0, 12.0,
                                           24.0));

/** Runtime under every policy: app terminates or progresses, and the
 *  scoreboard partition always sums to the event total. */
class PolicySweep
    : public ::testing::TestWithParam<capy::core::Policy>
{};

TEST_P(PolicySweep, ScoreboardPartitionInvariant)
{
    using namespace capy::core;
    using namespace capy::env;
    Policy policy = GetParam();

    sim::Rng rng(31337, 0x5eed);
    EventSchedule sched = EventSchedule::poisson(rng, 20.0, 400.0, 30.0);
    Scoreboard sb(sched);

    sim::Simulator simulator;
    PowerSystem::Spec spec;
    auto ps = std::make_unique<PowerSystem>(
        spec, std::make_unique<RegulatedSupply>(8e-3, 3.3));
    ps->addBank("small", parts::x5r100uF().parallel(4));
    int big = ps->addSwitchedBank("big", parts::edlc7_5mF(),
                                  SwitchSpec{});
    dev::Device device(simulator, std::move(ps), dev::msp430fr5969(),
                       policy == Policy::Continuous
                           ? dev::Device::PowerMode::Continuous
                           : dev::Device::PowerMode::Intermittent);

    ModeRegistry modes;
    ModeId small = modes.define("small", {});
    ModeId burst = modes.define("burst", {big});

    rt::App app;
    rt::Task *report = nullptr;
    rt::Task *watch = nullptr;
    report = app.addTask("report", 50e-3, 10e-3,
                         [&](rt::Kernel &k) -> const rt::Task * {
                             int id = sched.eventCovering(
                                 k.now() - 5.0, 5.0, 5.0);
                             sb.recordReport(id, k.now());
                             return watch;
                         });
    watch = app.addTask("watch", 2e-3, 0.0,
                        [&](rt::Kernel &k) -> const rt::Task * {
                            int id = sched.eventCovering(k.now(), 0.0,
                                                         5.0);
                            if (id >= 0) {
                                sb.recordDetection(id);
                                return report;
                            }
                            return watch;
                        });
    app.setEntry(watch);
    rt::Kernel kernel(device, app);
    Runtime runtime(kernel, modes, policy);
    runtime.annotate(watch, Annotation::preburst(burst, small));
    runtime.annotate(report, Annotation::burst(burst));
    runtime.install();
    kernel.start();
    simulator.runUntil(400.0);

    auto sum = sb.summarize();
    EXPECT_EQ(sum.correct + sum.misclassified + sum.proximityOnly +
                  sum.missed,
              sum.total);
    EXPECT_EQ(sum.total, sched.size());
    if (policy != Policy::CapyR) {
        // Every policy except Capy-R (whose recharge-after-detection
        // can outlive the 5 s window) should catch something.
        EXPECT_GT(sum.correct + sum.proximityOnly, 0u)
            << core::policyName(policy);
    }
}

INSTANTIATE_TEST_SUITE_P(
    AllPolicies, PolicySweep,
    ::testing::Values(capy::core::Policy::Continuous,
                      capy::core::Policy::Fixed,
                      capy::core::Policy::CapyR,
                      capy::core::Policy::CapyP));

/** Latch decay is time-decomposition invariant under random splits. */
class LatchDecaySweep : public ::testing::TestWithParam<int>
{};

TEST_P(LatchDecaySweep, SplitInvariant)
{
    sim::Rng rng(std::uint64_t(GetParam()), 0x1A7C);
    SwitchSpec spec;
    BankSwitch one(spec), many(spec);
    one.command(true, 0.0, true);
    many.command(true, 0.0, true);

    double horizon = rng.uniform(10.0, 400.0);
    one.update(horizon, false);
    double t = 0.0;
    while (t < horizon) {
        t = std::min(horizon, t + rng.exponential(7.0));
        many.update(t, false);
    }
    EXPECT_EQ(one.closed(), many.closed()) << "horizon " << horizon;
}

INSTANTIATE_TEST_SUITE_P(Seeds, LatchDecaySweep,
                         ::testing::Range(300, 330));

namespace
{

/** A constant supply or a step trace, looping or not; the same
 *  @p rng state builds the same harvester. A looping trace's steps
 *  are short, so it wraps several times within a few minutes. */
std::unique_ptr<Harvester>
randomStepSupply(sim::Rng &rng)
{
    if (rng.chance(0.5))
        return std::make_unique<RegulatedSupply>(
            rng.uniform(0.5e-3, 10e-3), 3.3);
    bool loop = rng.chance(0.5);
    std::vector<TraceHarvester::Sample> steps;
    sim::Time t = 0.0;
    for (int k = 0; k < 6; ++k) {
        steps.push_back({t, rng.uniform(0.0, 10e-3)});
        t += loop ? rng.uniform(1.0, 12.0) : rng.uniform(5.0, 60.0);
    }
    return std::make_unique<TraceHarvester>(std::move(steps), 3.3,
                                            loop);
}

/**
 * A random 2-4-node federated cascade on harvester @p h, advanced
 * idle to @p start, then given random starting voltages and, on about
 * half of its nodes, random loads. The same @p rng state builds the
 * same cascade.
 */
std::unique_ptr<FederatedStorage>
randomCascade(sim::Rng &rng, std::unique_ptr<Harvester> h,
              sim::Time start = 0.0)
{
    auto fs = std::make_unique<FederatedStorage>(FederatedStorage::Spec{},
                                                 std::move(h));
    int n = static_cast<int>(rng.uniformInt(2, 4));
    for (int i = 0; i < n; ++i) {
        CapacitorSpec caps[] = {
            parts::x5r100uF().parallel(rng.uniformInt(1, 8)),
            parts::tant1000uF(), parts::edlc7_5mF(),
            parts::cph3225a().parallel(rng.uniformInt(1, 3))};
        fs->addNode("n" + std::to_string(i),
                    caps[rng.uniformInt(0, 3)]);
    }
    fs->advanceTo(start);
    for (int i = 0; i < n; ++i) {
        fs->setNodeVoltageForTest(i, rng.uniform(0.0, 3.0));
        if (rng.chance(0.5))
            fs->setNodeLoad(i, rng.uniform(0.1e-3, 8e-3));
    }
    return fs;
}

} // namespace

/** The federated cascade is time-decomposition invariant: one advance
 *  and random splits of it agree on every node. */
class FederatedSplitInvariant : public ::testing::TestWithParam<int>
{};

TEST_P(FederatedSplitInvariant, OneAdvanceMatchesRandomSplits)
{
    auto build = [&] {
        sim::Rng rng(std::uint64_t(GetParam()), 0xFED5);
        return randomCascade(rng, randomStepSupply(rng));
    };
    auto one = build();
    auto many = build();

    sim::Rng rng(std::uint64_t(GetParam()), 0x5B1D);
    double horizon = rng.uniform(1.0, 300.0);
    one->advanceTo(horizon);
    double t = 0.0;
    while (t < horizon) {
        t = std::min(horizon, t + rng.exponential(horizon / 8.0));
        many->advanceTo(t);
    }
    for (int i = 0; i < one->numNodes(); ++i)
        EXPECT_NEAR(one->nodeVoltage(i), many->nodeVoltage(i), 1e-3)
            << "node " << i << " of " << one->numNodes()
            << ", horizon " << horizon;
}

INSTANTIATE_TEST_SUITE_P(Seeds, FederatedSplitInvariant,
                         ::testing::Range(400, 500));

/**
 * PowerSystem is time-decomposition invariant too: one advance and
 * random splits of it agree. Half the boards start near the 1.0 V
 * cold-start threshold with the rail on, below its brown-out floor,
 * half of those drawing between the converter's output above the
 * threshold and the bypass diode's below it at the supply's first
 * level, where the node parks on the threshold.
 */
class PowerSystemSplitInvariant : public ::testing::TestWithParam<int>
{};

TEST_P(PowerSystemSplitInvariant, OneAdvanceMatchesRandomSplits)
{
    auto build = [&] {
        sim::Rng rng(std::uint64_t(GetParam()), 0x5B17);
        PowerSystem::Spec spec;
        auto ps =
            std::make_unique<PowerSystem>(spec, randomStepSupply(rng));
        int n = static_cast<int>(rng.uniformInt(1, 2));
        for (int i = 0; i < n; ++i) {
            CapacitorSpec caps[] = {
                parts::x5r100uF().parallel(rng.uniformInt(1, 8)),
                parts::tant1000uF(), parts::edlc7_5mF(),
                parts::cph3225a().parallel(rng.uniformInt(1, 3))};
            ps->addBank("b" + std::to_string(i),
                        caps[rng.uniformInt(0, 3)]);
        }
        bool threshold = rng.chance(0.5);
        double v = threshold ? rng.uniform(0.9, 1.1) : rng.uniform(0.0, 3.0);
        for (int i = 0; i < n; ++i)
            ps->setBankVoltageForTest(i, v);
        if (threshold || rng.chance(0.5)) {
            ps->setRailEnabled(true);
            double p_h = ps->harvesterRef().power(0.0);
            double draw = p_h * rng.uniform(0.8, 0.9);
            double load = threshold && rng.chance(0.5)
                              ? (draw - spec.systemQuiescentPower -
                                 spec.output.quiescentPower) *
                                    spec.output.efficiency
                              : rng.uniform(0.0, 10e-3);
            ps->setRailLoad(std::max(0.0, load));
        }
        return ps;
    };
    auto one = build();
    auto many = build();

    sim::Rng rng(std::uint64_t(GetParam()), 0x5B18);
    double horizon = rng.uniform(1.0, 300.0);
    one->advanceTo(horizon);
    double t = 0.0;
    while (t < horizon) {
        t = std::min(horizon, t + rng.exponential(horizon / 8.0));
        many->advanceTo(t);
    }
    for (int i = 0; i < one->numBanks(); ++i)
        EXPECT_NEAR(one->bank(i).voltage(), many->bank(i).voltage(), 1e-3)
            << "bank " << i << " of " << one->numBanks() << ", horizon "
            << horizon;
}

INSTANTIATE_TEST_SUITE_P(Seeds, PowerSystemSplitInvariant,
                         ::testing::Range(1000, 1100));

/** Federated predictions match the advance that follows them, on a
 *  constant supply and on CapySat's orbit-light harvester. */
class FederatedPredictThenAdvance : public ::testing::TestWithParam<int>
{};

TEST_P(FederatedPredictThenAdvance, LandsOnTheTarget)
{
    sim::Rng rng(std::uint64_t(GetParam()), 0x9E7F);
    for (bool orbit : {false, true}) {
        auto harvester = [&]() -> std::unique_ptr<Harvester> {
            if (orbit)
                return orbitSolar();
            return std::make_unique<RegulatedSupply>(
                rng.uniform(0.5e-3, 10e-3), 3.3);
        };
        sim::Time start = orbit ? rng.uniform(0.0, 5550.0) : 0.0;

        // Fill a random node: it is full when the prediction says.
        auto fs = randomCascade(rng, harvester(), start);
        int idx = static_cast<int>(
            rng.uniformInt(0, std::uint64_t(fs->numNodes() - 1)));
        sim::Time dt = fs->timeToNodeFull(idx);
        if (std::isfinite(dt)) {
            fs->advanceTo(fs->time() + dt);
            EXPECT_TRUE(fs->nodeFull(idx))
                << (orbit ? "orbit" : "constant") << " supply, node "
                << idx << " at " << fs->nodeVoltage(idx) << " V after "
                << dt << " s";
        }

        // Brown a single loaded node out: it sits on its floor when
        // the prediction says.
        fs = randomCascade(rng, harvester(), start);
        int loaded = static_cast<int>(
            rng.uniformInt(0, std::uint64_t(fs->numNodes() - 1)));
        for (int i = 0; i < fs->numNodes(); ++i)
            fs->setNodeLoad(i, i == loaded ? rng.uniform(1e-3, 12e-3)
                                           : 0.0);
        fs->setNodeVoltageForTest(
            loaded,
            rng.uniform(fs->nodeBrownoutVoltage(loaded) + 0.01, 3.0));
        dt = fs->timeToAnyBrownout();
        if (std::isfinite(dt)) {
            fs->advanceTo(fs->time() + dt);
            EXPECT_NEAR(fs->nodeVoltage(loaded),
                        fs->nodeBrownoutVoltage(loaded), 1e-3)
                << (orbit ? "orbit" : "constant") << " supply, node "
                << loaded << " after " << dt << " s";
        }
    }
}

INSTANTIATE_TEST_SUITE_P(Seeds, FederatedPredictThenAdvance,
                         ::testing::Range(600, 700));

namespace
{

/** dev::Device's margin: a brown-out aborts a workload only if it
 *  comes at least this long before the workload's end. */
constexpr double kRaceTol = 1e-9;

/** Any harvester a device runs on: constant, solar on its change
 *  grid, orbit light, or a step trace, looping or not. The same
 *  @p rng state builds the same harvester. */
std::unique_ptr<Harvester>
randomRunSupply(sim::Rng &rng)
{
    switch (rng.uniformInt(0, 2)) {
      case 0:
        return orbitSolar();
      case 1: {
        double phase = rng.uniform(0.0, 6.0);
        auto panels = unsigned(rng.uniformInt(1, 3));
        double peak = rng.uniform(2e-3, 12e-3);
        double grid = rng.uniform(0.5, 4.0);
        return std::make_unique<SolarArray>(
            panels, peak, 2.5,
            [phase](sim::Time t) {
                return 0.5 + 0.5 * std::sin(0.37 * t + phase);
            },
            grid);
      }
      default:
        return randomStepSupply(rng);
    }
}

/** A random 1-3 bank board: bank 0 hard-wired, the others hard-wired
 *  or behind a latch switch. */
std::unique_ptr<PowerSystem>
randomBoard(sim::Rng &rng)
{
    auto ps = std::make_unique<PowerSystem>(PowerSystem::Spec{},
                                            randomRunSupply(rng));
    int n = static_cast<int>(rng.uniformInt(1, 3));
    for (int i = 0; i < n; ++i) {
        CapacitorSpec caps[] = {
            parts::x5r100uF().parallel(rng.uniformInt(1, 8)),
            parts::tant1000uF(), parts::edlc7_5mF(),
            parts::cph3225a().parallel(rng.uniformInt(1, 3))};
        CapacitorSpec cap = caps[rng.uniformInt(0, 3)];
        std::string name = "b" + std::to_string(i);
        if (i > 0 && rng.chance(0.6)) {
            SwitchSpec sw;
            sw.kind = rng.chance(0.5) ? SwitchKind::NormallyOpen
                                      : SwitchKind::NormallyClosed;
            ps->addSwitchedBank(name, cap, sw);
        } else {
            ps->addBank(name, cap);
        }
    }
    return ps;
}

/** Every bank energy, every EnergyStats field and the charge-cycle
 *  counts, bit for bit. */
void
expectSameState(const PowerSystem &a, const PowerSystem &b, int w)
{
    ASSERT_EQ(a.time(), b.time()) << "workload " << w;
    for (int i = 0; i < a.numBanks(); ++i) {
        EXPECT_EQ(a.bankActive(i), b.bankActive(i)) << "workload " << w;
        EXPECT_EQ(a.bank(i).energy(), b.bank(i).energy())
            << "bank " << i << ", workload " << w;
        EXPECT_EQ(a.bank(i).cyclesUsed(), b.bank(i).cyclesUsed())
            << "bank " << i << ", workload " << w;
    }
    const auto &sa = a.stats();
    const auto &sb = b.stats();
    EXPECT_EQ(sa.harvestedIn, sb.harvestedIn) << "workload " << w;
    EXPECT_EQ(sa.drainedOut, sb.drainedOut) << "workload " << w;
    EXPECT_EQ(sa.leaked, sb.leaked) << "workload " << w;
    EXPECT_EQ(sa.faultDrained, sb.faultDrained) << "workload " << w;
    EXPECT_EQ(sa.chargeCompletions, sb.chargeCompletions)
        << "workload " << w;
}

} // namespace

/**
 * One walk per workload is the two-walk protocol, bit for bit: on
 * twin boards, runLoad() + advanceTo(end) against setRailLoad() +
 * timeToBrownout() + advanceTo(end), with the end at the brown-out
 * when one comes kRaceTol before the workload's end, as dev::Device
 * schedules it. Workloads stay inside one harvester segment, cross
 * changes, brown out early, end within kRaceTol of the brown-out or
 * sit limiter-pinned, and about half have a control call, a collapse,
 * a test mutation, a second runLoad() or an advance to mid-workload
 * between the two steps.
 */
class StagedRunLoad : public ::testing::TestWithParam<int>
{};

TEST_P(StagedRunLoad, MatchesPredictThenAdvance)
{
    auto build = [&] {
        sim::Rng rng(std::uint64_t(GetParam()), 0x57A6);
        return randomBoard(rng);
    };
    auto one = build();  // runLoad, then advanceTo
    auto two = build();  // setRailLoad, timeToBrownout, advanceTo
    PowerSystem *both[] = {one.get(), two.get()};
    sim::Rng rng(std::uint64_t(GetParam()), 0x10AD);

    sim::Time now = rng.uniform(0.0, 6000.0);
    for (PowerSystem *ps : both)
        ps->advanceTo(now);
    // Rail on, every bank at one voltage; a fifth of the time at the
    // charge target, where a strong supply pins the node.
    auto restart = [&] {
        for (PowerSystem *ps : both)
            ps->setRailEnabled(true);
        double top = one->topVoltage();
        double v = rng.chance(0.2) ? top : rng.uniform(1.0, top);
        for (int i = 0; i < one->numBanks(); ++i) {
            double rated = one->bank(i).spec().ratedVoltage;
            double vi = rated > 0.0 ? std::min(v, rated) : v;
            for (PowerSystem *ps : both)
                ps->setBankVoltageForTest(i, vi);
        }
    };
    restart();

    int switched = -1;
    for (int i = 0; i < one->numBanks(); ++i)
        if (one->bankSwitch(i))
            switched = i;

    // Both twins take the same workload; returns whether it browns
    // out first, and sets where the device would advance to.
    sim::Time stop = now;
    auto start = [&](double watts, double dur, int w) {
        sim::Time tb_one = one->runLoad(watts, now + dur);
        two->setRailLoad(watts);
        sim::Time tb_two = two->timeToBrownout();
        bool fails = tb_two < dur - kRaceTol;
        if (std::isfinite(tb_one))
            EXPECT_EQ(tb_one, tb_two) << "workload " << w;
        else
            EXPECT_FALSE(fails) << "runLoad missed a brown-out at "
                                << tb_two << " s, workload " << w;
        EXPECT_EQ(tb_one < dur - kRaceTol, fails) << "workload " << w;
        stop = fails ? now + tb_two : now + dur;
        return fails;
    };

    int commits = 0;
    for (int w = 0; w < 60; ++w) {
        double watts = rng.chance(0.3) ? rng.uniform(5e-3, 40e-3)
                                       : rng.uniform(0.0, 4e-3);
        two->setRailLoad(watts);
        sim::Time probe = two->timeToBrownout();
        double dur;
        switch (rng.uniformInt(0, 2)) {
          case 0:  // most likely inside one harvester segment
            dur = rng.uniform(1e-4, 0.05);
            break;
          case 1:  // often across harvester changes
            dur = rng.exponential(20.0);
            break;
          default:  // ends within kRaceTol of the brown-out
            dur = std::isfinite(probe)
                      ? std::max(0.0, probe + rng.uniform(-2.0, 2.0) *
                                                  kRaceTol)
                      : 1.0;
            break;
        }
        bool fails = start(watts, dur, w);

        switch (rng.uniformInt(0, 19)) {
          case 0: {
            sim::Time mid = now + (stop - now) * rng.uniform(0.0, 1.0);
            for (PowerSystem *ps : both)
                ps->advanceTo(mid);
            break;
          }
          case 1: {
            double other = rng.uniform(0.0, 10e-3);
            for (PowerSystem *ps : both)
                ps->setRailLoad(other);
            break;
          }
          case 2:  // the same load again keeps the stage
            for (PowerSystem *ps : both)
                ps->setRailLoad(watts);
            break;
          case 3:
            if (switched >= 0) {
                bool closed = !one->bankActive(switched);
                for (PowerSystem *ps : both)
                    ps->commandSwitch(switched, closed);
            }
            break;
          case 4: {
            double ceiling = rng.uniform(1.9, 2.9);
            for (PowerSystem *ps : both)
                ps->setChargeCeiling(ceiling);
            break;
          }
          case 5:
            for (PowerSystem *ps : both)
                ps->clearChargeCeiling();
            break;
          case 6:
            for (PowerSystem *ps : both)
                ps->collapseToBrownout();
            break;
          case 7: {
            double v = rng.uniform(1.0, 2.5);
            for (PowerSystem *ps : both)
                ps->setBankVoltageForTest(0, v);
            break;
          }
          case 8:  // a second workload replaces the first
            fails = start(rng.uniform(0.0, 20e-3),
                          rng.exponential(2.0), w);
            break;
          case 9:
            for (PowerSystem *ps : both)
                ps->setRailEnabled(false);
            break;
          default:
            break;
        }

        std::uint64_t walks = sim::workCounts.advanceWalks;
        one->advanceTo(stop);
        if (stop > now && sim::workCounts.advanceWalks == walks)
            ++commits;
        two->advanceTo(stop);
        expectSameState(*one, *two, w);
        now = stop;
        if (fails || !one->railEnabled() || rng.chance(0.1))
            restart();
    }
    EXPECT_GT(commits, 0) << "no workload committed a staged walk";
}

INSTANTIATE_TEST_SUITE_P(Seeds, StagedRunLoad,
                         ::testing::Range(800, 900));
