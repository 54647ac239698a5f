/**
 * @file
 * Integration tests for the composed PowerSystem: charge/discharge
 * trajectories, predictive queries, switch reconfiguration, latch
 * expiry, pre-charge ceilings, and energy accounting.
 */

#include <gtest/gtest.h>

#include <cmath>
#include <memory>

#include "power/parts.hh"
#include "power/power_system.hh"
#include "power/solver.hh"
#include "power/units.hh"

using namespace capy;
using namespace capy::power;

namespace
{

PowerSystem::Spec
defaultSpec()
{
    PowerSystem::Spec s;
    s.maxStorageVoltage = 3.0;
    return s;
}

std::unique_ptr<PowerSystem>
makeSystem(double harvest_mw = 10.0)
{
    auto ps = std::make_unique<PowerSystem>(
        defaultSpec(),
        std::make_unique<RegulatedSupply>(harvest_mw * 1e-3, 3.3));
    return ps;
}

} // namespace

TEST(PowerSystem, ChargesToFullAndPins)
{
    auto ps = makeSystem();
    ps->addBank("small", parts::x5r100uF().parallel(4));
    sim::Time t_full = ps->timeToFull();
    ASSERT_TRUE(std::isfinite(t_full));
    EXPECT_GT(t_full, 0.0);
    ps->advanceTo(t_full * 1.01);
    EXPECT_TRUE(ps->isFull());
    EXPECT_NEAR(ps->storageVoltage(), 3.0, 1e-4);
    // Pinned: voltage stays at the top.
    ps->advanceTo(t_full * 1.01 + 100.0);
    EXPECT_NEAR(ps->storageVoltage(), 3.0, 1e-4);
}

TEST(PowerSystem, TimeToFullMatchesActualTrajectory)
{
    auto ps = makeSystem();
    ps->addBank("b", parts::tant330uF());
    sim::Time predicted = ps->timeToFull();
    ASSERT_TRUE(std::isfinite(predicted));
    ps->advanceTo(predicted * 0.99);
    EXPECT_FALSE(ps->isFull());
    ps->advanceTo(predicted + 1e-6);
    EXPECT_TRUE(ps->isFull());
}

TEST(PowerSystem, BypassAcceleratesColdStart)
{
    auto with = makeSystem();
    with->addBank("b", parts::edlc7_5mF());
    auto spec = defaultSpec();
    spec.input.bypassEnabled = false;
    auto without = std::make_unique<PowerSystem>(
        spec, std::make_unique<RegulatedSupply>(10e-3, 3.3));
    without->addBank("b", parts::edlc7_5mF());

    sim::Time t_with = with->timeToFull();
    sim::Time t_without = without->timeToFull();
    ASSERT_TRUE(std::isfinite(t_with));
    ASSERT_TRUE(std::isfinite(t_without));
    // The paper observed at least an order of magnitude improvement.
    EXPECT_GE(t_without / t_with, 5.0);
}

TEST(PowerSystem, DischargeUnderLoadBrownsOut)
{
    auto ps = makeSystem(0.0);  // no harvest
    ps->addBank("b", parts::x5r100uF().parallel(4));
    ps->setBankVoltageForTest(0, 3.0);
    ps->setRailEnabled(true);
    ps->setRailLoad(8e-3);
    sim::Time t_bo = ps->timeToBrownout();
    ASSERT_TRUE(std::isfinite(t_bo));
    EXPECT_GT(t_bo, 0.0);
    ps->advanceTo(t_bo);
    EXPECT_NEAR(ps->storageVoltage(), ps->brownoutVoltageNow(), 1e-3);
}

TEST(PowerSystem, LargerBankRunsLonger)
{
    auto small = makeSystem(0.0);
    small->addBank("b", parts::x5r100uF().parallel(4));
    small->setBankVoltageForTest(0, 3.0);
    small->setRailEnabled(true);
    small->setRailLoad(8e-3);

    auto large = makeSystem(0.0);
    large->addBank("b", parts::edlc7_5mF());
    large->setBankVoltageForTest(0, 3.0);
    large->setRailEnabled(true);
    large->setRailLoad(8e-3);

    EXPECT_GT(large->timeToBrownout(), 5.0 * small->timeToBrownout());
}

TEST(PowerSystem, LargerBankChargesSlower)
{
    auto small = makeSystem();
    small->addBank("b", parts::x5r100uF().parallel(4));
    auto large = makeSystem();
    large->addBank("b", parts::edlc7_5mF());
    EXPECT_GT(large->timeToFull(), 5.0 * small->timeToFull());
}

TEST(PowerSystem, SwitchedBankJoinsAndRedistributes)
{
    auto ps = makeSystem();
    int base = ps->addBank("base", parts::x5r100uF().parallel(4));
    SwitchSpec sw;  // normally open
    int big = ps->addSwitchedBank("big", parts::edlc7_5mF(), sw);
    EXPECT_TRUE(ps->bankActive(base));
    EXPECT_FALSE(ps->bankActive(big));

    ps->setBankVoltageForTest(base, 3.0);
    ps->setRailEnabled(true);
    double c_before = ps->activeCapacitance();
    ps->commandSwitch(big, true);
    EXPECT_TRUE(ps->bankActive(big));
    EXPECT_GT(ps->activeCapacitance(), c_before * 10);
    // Empty big bank pulled the node voltage down (charge conserved).
    EXPECT_LT(ps->storageVoltage(), 0.5);
}

TEST(PowerSystem, OpeningSwitchPreservesBankCharge)
{
    auto ps = makeSystem();
    ps->addBank("base", parts::x5r100uF().parallel(4));
    SwitchSpec sw;
    int big = ps->addSwitchedBank("big", parts::edlc7_5mF(), sw);
    ps->setRailEnabled(true);
    ps->commandSwitch(big, true);
    ps->advanceTo(ps->timeToFull());
    EXPECT_TRUE(ps->isFull());
    double v_big = ps->bank(big).voltage();
    ps->commandSwitch(big, false);
    EXPECT_FALSE(ps->bankActive(big));
    EXPECT_NEAR(ps->bank(big).voltage(), v_big, 1e-9);
    // The disconnected bank decays only slowly via leakage.
    ps->setRailEnabled(false);
    ps->advanceTo(ps->time() + 10.0);
    EXPECT_NEAR(ps->bank(big).voltage(), v_big, 0.05);
}

TEST(PowerSystem, NormallyOpenLatchExpiryDisconnects)
{
    auto ps = makeSystem(0.0);
    ps->addBank("base", parts::x5r100uF().parallel(4));
    SwitchSpec sw;  // NO
    int big = ps->addSwitchedBank("big", parts::edlc7_5mF(), sw);
    ps->setBankVoltageForTest(0, 3.0);
    ps->setRailEnabled(true);
    ps->commandSwitch(big, true);
    ps->setRailEnabled(false);  // power lost; latch starts decaying

    sim::Time expiry = ps->nextLatchExpiry();
    ASSERT_TRUE(std::isfinite(expiry));
    ps->advanceTo(expiry - 1.0);
    EXPECT_TRUE(ps->bankActive(big));
    ps->advanceTo(expiry + 1.0);
    EXPECT_FALSE(ps->bankActive(big)) << "NO switch must revert open";
}

TEST(PowerSystem, NormallyClosedLatchExpiryReconnects)
{
    auto ps = makeSystem(0.0);
    ps->addBank("base", parts::x5r100uF().parallel(4));
    SwitchSpec sw;
    sw.kind = SwitchKind::NormallyClosed;
    int big = ps->addSwitchedBank("big", parts::edlc7_5mF(), sw);
    ps->setBankVoltageForTest(0, 3.0);
    ps->setRailEnabled(true);
    ps->commandSwitch(big, false);
    EXPECT_FALSE(ps->bankActive(big));
    ps->setRailEnabled(false);

    sim::Time expiry = ps->nextLatchExpiry();
    ASSERT_TRUE(std::isfinite(expiry));
    ps->advanceTo(expiry + 1.0);
    EXPECT_TRUE(ps->bankActive(big)) << "NC switch must revert closed";
}

TEST(PowerSystem, LatchHeldWhilePowered)
{
    auto ps = makeSystem();
    ps->addBank("base", parts::x5r100uF().parallel(4));
    int big = ps->addSwitchedBank("big", parts::edlc7_5mF(),
                                  SwitchSpec{});
    ps->setRailEnabled(true);
    ps->commandSwitch(big, true);
    EXPECT_TRUE(std::isinf(ps->nextLatchExpiry()));
    ps->advanceTo(10000.0);
    EXPECT_TRUE(ps->bankActive(big));
}

TEST(PowerSystem, ChargeCeilingCapsPrecharge)
{
    auto ps = makeSystem();
    ps->addBank("b", parts::tant330uF());
    ps->setChargeCeiling(3.0 - 0.3);
    ps->advanceTo(ps->timeToFull() + 1.0);
    EXPECT_NEAR(ps->storageVoltage(), 2.7, 1e-3);
    ps->clearChargeCeiling();
    EXPECT_FALSE(ps->isFull());
    sim::Time more = ps->timeToFull();
    ASSERT_TRUE(std::isfinite(more));
    ps->advanceTo(ps->time() + more + 1.0);
    EXPECT_NEAR(ps->storageVoltage(), 3.0, 1e-3);
}

/** A ceiling set below the node's voltage: the booster stops feeding
 *  it, it drains by its draw and leakage down to the ceiling and pins
 *  there, and the ledger books every joule on the way. */
TEST(PowerSystem, CeilingBelowNodeDrainsAndBooks)
{
    auto ps = makeSystem();
    ps->addBank("b", parts::x5r100uF().parallel(4));
    ps->setBankVoltageForTest(0, 3.0);
    ps->setChargeCeiling(2.5);
    EXPECT_TRUE(ps->isFull());
    EXPECT_EQ(ps->timeToFull(), 0.0);

    // Rail off: only the board overhead and leakage drain it.
    ps->advanceTo(10.0);
    EXPECT_GT(ps->storageVoltage(), 2.9);
    EXPECT_LT(ps->storageVoltage(), 3.0);
    EXPECT_EQ(ps->stats().harvestedIn, 0.0);
    EXPECT_NEAR(ps->ledgerResidual(), 0.0, 1e-12);

    // A 5 mW load takes the 0.55 mJ above the ceiling in about 0.1 s;
    // then the 10 mW supply pins the node at the ceiling.
    ps->setRailEnabled(true);
    ps->setRailLoad(5e-3);
    ps->advanceTo(20.0);
    EXPECT_NEAR(ps->storageVoltage(), 2.5, 1e-6);
    EXPECT_TRUE(ps->isFull());
    EXPECT_GT(ps->stats().harvestedIn, 0.0);
    EXPECT_NEAR(ps->ledgerResidual(), 0.0,
                1e-9 * ps->stats().harvestedIn + 1e-12);
}

TEST(PowerSystem, EnergyAccountingBalances)
{
    auto ps = makeSystem();
    ps->addBank("b", parts::edlc7_5mF());
    ps->advanceTo(50.0);
    ps->setRailEnabled(true);
    ps->setRailLoad(5e-3);
    ps->advanceTo(80.0);
    const auto &st = ps->stats();
    double stored = ps->activeEnergy();
    // harvested = stored + drained + leaked (all >= 0)
    EXPECT_GT(st.harvestedIn, 0.0);
    EXPECT_GT(st.drainedOut, 0.0);
    EXPECT_GE(st.leaked, -1e-9);
    EXPECT_NEAR(st.harvestedIn, stored + st.drainedOut + st.leaked,
                st.harvestedIn * 1e-6 + 1e-9);
}

TEST(PowerSystem, VoltageTraceMonotoneTimes)
{
    auto ps = makeSystem();
    ps->addBank("b", parts::x5r100uF().parallel(4));
    sim::TimeSeries trace("v");
    ps->attachVoltageTrace(&trace);
    ps->advanceTo(5.0);
    ps->setRailEnabled(true);
    ps->setRailLoad(8e-3);
    ps->advanceTo(10.0);
    ASSERT_GT(trace.size(), 0u);
    for (size_t i = 1; i < trace.points().size(); ++i)
        EXPECT_GE(trace.points()[i].t, trace.points()[i - 1].t);
}

TEST(PowerSystem, RatedVoltageLimitsTop)
{
    PowerSystem::Spec spec = defaultSpec();
    spec.maxStorageVoltage = 5.0;  // above the EDLC 3.3 V rating
    PowerSystem ps(spec, std::make_unique<RegulatedSupply>(10e-3, 6.0));
    ps.addBank("edlc", parts::cph3225a());
    EXPECT_DOUBLE_EQ(ps.topVoltage(), 3.3);
}

TEST(PowerSystem, NoActiveBanksMeansNoCharge)
{
    auto ps = makeSystem();
    int b = ps->addSwitchedBank("only", parts::edlc7_5mF(),
                                SwitchSpec{});
    EXPECT_FALSE(ps->bankActive(b));
    EXPECT_DOUBLE_EQ(ps->activeCapacitance(), 0.0);
    EXPECT_TRUE(std::isinf(ps->timeToFull()));
    ps->advanceTo(100.0);
    EXPECT_DOUBLE_EQ(ps->bank(b).energy(), 0.0);
}

/** A parked empty node books only what the input booster delivers at
 *  0 V, all of it drained: nothing with no harvest, the cold-start
 *  trickle under a weak one, not the quiescent draw it cannot meet. */
TEST(PowerSystem, EmptyNodeBooksOnlyWhatArrives)
{
    auto spec = defaultSpec();
    spec.input.bypassEnabled = false;
    for (double harvest : {0.0, 1e-6}) {
        PowerSystem ps(spec,
                       std::make_unique<RegulatedSupply>(harvest, 3.3));
        ps.addBank("b", parts::x5r100uF().parallel(4));
        ps.advanceTo(100.0);
        double trickle = spec.input.coldStartFraction * harvest * 100.0;
        EXPECT_EQ(ps.activeEnergy(), 0.0);
        EXPECT_NEAR(ps.stats().harvestedIn, trickle, 1e-12)
            << harvest << " W";
        EXPECT_NEAR(ps.stats().drainedOut, trickle, 1e-12)
            << harvest << " W";
    }
}

TEST(PowerSystem, WeakHarvestNeverFills)
{
    // Trickle below leakage: the node can never reach the target.
    auto spec = defaultSpec();
    spec.input.bypassEnabled = false;
    spec.systemQuiescentPower = 50e-6;
    auto ps = std::make_unique<PowerSystem>(
        spec, std::make_unique<RegulatedSupply>(100e-6, 3.3));
    ps->addBank("b", parts::edlc7_5mF());
    EXPECT_TRUE(std::isinf(ps->timeToFull()));
}

TEST(PowerSystem, HigherHarvestChargesFaster)
{
    auto slow = makeSystem(2.0);
    slow->addBank("b", parts::edlc7_5mF());
    auto fast = makeSystem(20.0);
    fast->addBank("b", parts::edlc7_5mF());
    EXPECT_LT(fast->timeToFull(), slow->timeToFull());
    EXPECT_GT(slow->timeToFull() / fast->timeToFull(), 5.0);
}

TEST(PowerSystem, ChargeCompletionsCounted)
{
    auto ps = makeSystem();
    ps->addBank("b", parts::x5r100uF().parallel(4));
    ps->advanceTo(ps->timeToFull() + 1.0);
    EXPECT_EQ(ps->stats().chargeCompletions, 1u);
    // Drain below full, then recharge: second completion.
    ps->setRailEnabled(true);
    ps->setRailLoad(8e-3);
    ps->advanceTo(ps->time() + ps->timeToBrownout());
    ps->setRailLoad(0.0);
    ps->setRailEnabled(false);
    sim::Time t_re = ps->timeToFull();
    ASSERT_TRUE(std::isfinite(t_re));
    ps->advanceTo(ps->time() + t_re + 1.0);
    EXPECT_EQ(ps->stats().chargeCompletions, 2u);
}

TEST(PowerSystem, AreaAndVolumeAccounting)
{
    auto ps = makeSystem();
    ps->addBank("a", parts::x5r100uF().parallel(4));
    ps->addSwitchedBank("b", parts::edlc7_5mF(), SwitchSpec{});
    ps->addSwitchedBank("c", parts::cph3225a(), SwitchSpec{});
    EXPECT_DOUBLE_EQ(ps->totalSwitchArea(), 160.0);
    EXPECT_NEAR(ps->totalCapacitorVolume(), 80.0 + 30.0 + 7.2, 1e-9);
}

TEST(PowerSystem, TimeToVoltageZeroWhenAtTarget)
{
    auto ps = makeSystem();
    ps->addBank("b", parts::x5r100uF().parallel(4));
    ps->setBankVoltageForTest(0, 2.0);
    EXPECT_DOUBLE_EQ(ps->timeToVoltage(2.0), 0.0);
}

TEST(PowerSystem, TimeToVoltageUnreachableAboveTop)
{
    auto ps = makeSystem();
    ps->addBank("b", parts::x5r100uF().parallel(4));
    EXPECT_TRUE(std::isinf(ps->timeToVoltage(3.5)));
}
