/**
 * @file
 * Tests for the booster, limiter, bank-switch, and harvester models.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <vector>

#include "power/bankswitch.hh"
#include "power/booster.hh"
#include "power/harvester.hh"
#include "power/solver.hh"
#include "power/units.hh"

using namespace capy;
using namespace capy::power;

namespace
{

InputBoosterSpec
inSpec()
{
    return InputBoosterSpec{};
}

OutputBoosterSpec
outSpec()
{
    return OutputBoosterSpec{};
}

} // namespace

TEST(InputBooster, BoostedTransferAboveColdStart)
{
    auto s = inSpec();
    double p = inputChargePower(s, 10e-3, 3.3, 2.0);
    EXPECT_NEAR(p, 0.80 * 10e-3 - s.quiescentPower, 1e-12);
}

TEST(InputBooster, TrickleOnlyBelowColdStartWithoutBypass)
{
    auto s = inSpec();
    s.bypassEnabled = false;
    double p = inputChargePower(s, 10e-3, 3.3, 0.5);
    EXPECT_NEAR(p, s.coldStartFraction * 10e-3, 1e-12);
}

TEST(InputBooster, BypassSpeedsColdStart)
{
    auto with = inSpec();
    auto without = inSpec();
    without.bypassEnabled = false;
    double p_with = inputChargePower(with, 10e-3, 3.3, 0.5);
    double p_without = inputChargePower(without, 10e-3, 3.3, 0.5);
    // The paper reports the bypass cuts charge time by >= 10x.
    EXPECT_GE(p_with / p_without, 10.0);
}

TEST(InputBooster, BypassStopsAtDiodeCutoff)
{
    auto s = inSpec();
    // Storage above harvester voltage minus the diode drop: the diode
    // blocks, only the trickle path remains.
    double v_storage = 3.3 - s.bypassDiodeDrop + 0.01;
    // Keep below the cold-start threshold to stay in the cold path.
    s.coldStartVoltage = 5.0;
    double p = inputChargePower(s, 10e-3, 3.3, v_storage);
    EXPECT_NEAR(p, s.coldStartFraction * 10e-3, 1e-12);
}

TEST(InputBooster, BreakpointsBoundTheRegimes)
{
    // Harvester at 1.2 V: bypass below 0.9 V, trickle up to the 1.0 V
    // cold start, boosted above. The charge power is constant between
    // consecutive breakpoints and changes across each one.
    for (bool bypass : {true, false}) {
        auto s = inSpec();
        s.bypassEnabled = bypass;
        std::vector<double> edges{0.0, 3.0};
        for (double b : inputChargeBreakpoints(s, 1.2))
            if (b > 0.0)
                edges.push_back(b);
        std::sort(edges.begin(), edges.end());
        ASSERT_EQ(edges.size(), bypass ? 4u : 3u);
        auto pc = [&](double v) {
            return inputChargePower(s, 10e-3, 1.2, v);
        };
        for (std::size_t k = 0; k + 1 < edges.size(); ++k) {
            EXPECT_EQ(pc(edges[k] + 1e-6), pc(edges[k + 1] - 1e-6));
            if (k > 0) {
                EXPECT_NE(pc(edges[k] - 1e-6), pc(edges[k] + 1e-6))
                    << "breakpoint " << edges[k] << " V";
            }
        }
    }
}

TEST(InputBooster, NoHarvestNoCharge)
{
    EXPECT_DOUBLE_EQ(inputChargePower(inSpec(), 0.0, 3.3, 1.0), 0.0);
}

TEST(InputBooster, QuiescentNeverGoesNegative)
{
    auto s = inSpec();
    // Harvest power smaller than converter quiescent draw.
    double p = inputChargePower(s, 5e-6, 3.3, 2.0);
    EXPECT_GE(p, 0.0);
}

TEST(OutputBooster, StorageDrawIncludesLossAndQuiescent)
{
    auto s = outSpec();
    double p = storageDrawPower(s, 8.5e-3);
    EXPECT_NEAR(p, 8.5e-3 / 0.85 + s.quiescentPower, 1e-12);
}

TEST(OutputBooster, BrownoutFloorAtZeroEsr)
{
    auto s = outSpec();
    EXPECT_NEAR(brownoutVoltage(s, 10e-3, 0.0), s.minInputRun, 1e-12);
}

TEST(OutputBooster, EsrRaisesBrownoutFloor)
{
    auto s = outSpec();
    double lo = brownoutVoltage(s, 8e-3, 0.1);
    double hi = brownoutVoltage(s, 8e-3, 160.0);
    EXPECT_LT(lo, hi);
    // With 160 ohm (CPH3225A), the floor strands much of the energy.
    EXPECT_GT(hi, 1.5);
}

TEST(OutputBooster, DroopEquationHolds)
{
    auto s = outSpec();
    double esr = 20.0;
    double load = 5e-3;
    double v = brownoutVoltage(s, load, esr);
    double p_in = storageDrawPower(s, load);
    EXPECT_NEAR(v - (p_in / v) * esr, s.minInputRun, 1e-9);
}

TEST(OutputBooster, StartVoltageAboveRunVoltage)
{
    auto s = outSpec();
    EXPECT_GT(startVoltage(s, 5e-3, 10.0),
              brownoutVoltage(s, 5e-3, 10.0));
}

TEST(Limiter, ClampsHighVoltage)
{
    LimiterSpec lim;
    EXPECT_DOUBLE_EQ(limitedVoltage(lim, 12.0), lim.clampVoltage);
    EXPECT_DOUBLE_EQ(limitedVoltage(lim, 3.0), 3.0);
}

TEST(BankSwitch, DefaultStatesByKind)
{
    SwitchSpec no;
    no.kind = SwitchKind::NormallyOpen;
    SwitchSpec nc;
    nc.kind = SwitchKind::NormallyClosed;
    BankSwitch s_no(no), s_nc(nc);
    EXPECT_FALSE(s_no.closed());
    EXPECT_TRUE(s_nc.closed());
    EXPECT_TRUE(s_no.atDefault());
    EXPECT_TRUE(s_nc.atDefault());
}

TEST(BankSwitch, CommandChangesState)
{
    BankSwitch s(SwitchSpec{});
    s.command(true, 1.0, true);
    EXPECT_TRUE(s.closed());
    EXPECT_FALSE(s.atDefault());
}

TEST(BankSwitch, RetentionTimeNearThreeMinutes)
{
    // §6.5: 4.7 uF latch retains state for approximately 3 minutes.
    BankSwitch s(SwitchSpec{});
    EXPECT_NEAR(s.retentionTime(), 180.0, 40.0);
}

TEST(BankSwitch, StateHeldWhilePowered)
{
    BankSwitch s(SwitchSpec{});
    s.command(true, 0.0, true);
    s.update(10000.0, true);  // long but powered
    EXPECT_TRUE(s.closed());
}

TEST(BankSwitch, RevertsAfterRetentionUnpowered)
{
    BankSwitch s(SwitchSpec{});
    s.command(true, 0.0, true);
    double ret = s.retentionTime();
    s.update(ret * 0.9, false);
    EXPECT_TRUE(s.closed()) << "should still hold at 90% retention";
    s.update(ret * 1.1, false);
    EXPECT_FALSE(s.closed()) << "should revert past retention";
    EXPECT_EQ(s.reversions(), 1u);
}

TEST(BankSwitch, NormallyClosedRevertsToClosed)
{
    SwitchSpec spec;
    spec.kind = SwitchKind::NormallyClosed;
    BankSwitch s(spec);
    s.command(false, 0.0, true);
    EXPECT_FALSE(s.closed());
    s.update(s.retentionTime() * 2.0, false);
    EXPECT_TRUE(s.closed());
}

TEST(BankSwitch, ExpiryTimePredictsReversion)
{
    BankSwitch s(SwitchSpec{});
    s.command(true, 0.0, true);
    double exp = s.expiryTime(0.0);
    ASSERT_TRUE(std::isfinite(exp));
    EXPECT_NEAR(exp, s.retentionTime(), 1e-9);
    // Just before expiry: still closed. At expiry: reverts.
    s.update(exp - 1e-3, false);
    EXPECT_TRUE(s.closed());
    s.update(exp + 1e-9, false);
    EXPECT_FALSE(s.closed());
}

TEST(BankSwitch, ExpiryNeverAtDefault)
{
    BankSwitch s(SwitchSpec{});
    EXPECT_TRUE(std::isinf(s.expiryTime(0.0)));
}

TEST(BankSwitch, IntermediateDecayResumesCorrectly)
{
    BankSwitch s(SwitchSpec{});
    s.command(true, 0.0, true);
    double ret = s.retentionTime();
    // Decay in many small steps must match one big step.
    for (int i = 1; i <= 10; ++i)
        s.update(ret * 0.09 * i, false);
    EXPECT_TRUE(s.closed());
    s.update(ret * 1.01, false);
    EXPECT_FALSE(s.closed());
}

TEST(Harvester, RegulatedSupplyIsConstant)
{
    RegulatedSupply h(10e-3, 3.3);
    EXPECT_DOUBLE_EQ(h.power(0.0), 10e-3);
    EXPECT_DOUBLE_EQ(h.power(1e6), 10e-3);
    EXPECT_DOUBLE_EQ(h.voltage(5.0), 3.3);
    EXPECT_TRUE(std::isinf(h.nextChange(0.0)));
}

TEST(Harvester, SolarArraySeriesVoltage)
{
    SolarArray h(2, 11e-3, 2.5);
    EXPECT_DOUBLE_EQ(h.voltage(0.0), 5.0);
    EXPECT_DOUBLE_EQ(h.power(0.0), 22e-3);
}

TEST(Harvester, SolarIlluminationScalesPower)
{
    SolarArray h(1, 20e-3, 2.5,
                 [](double t) { return t < 10.0 ? 0.42 : 1.0; }, 1.0);
    EXPECT_NEAR(h.power(0.0), 8.4e-3, 1e-12);
    EXPECT_NEAR(h.power(11.0), 20e-3, 1e-12);
    EXPECT_DOUBLE_EQ(h.nextChange(0.5), 1.0);
    EXPECT_DOUBLE_EQ(h.nextChange(1.0), 2.0);
}

/** At every grid instant, including those where t / period rounds
 *  to just below an integer, the next change lies strictly ahead;
 *  one at t itself would stall advanceTo(). */
TEST(Harvester, SolarGridChangeIsStrictlyLater)
{
    for (double period : {0.7, 1.3373820634731044, 3.1}) {
        SolarArray h(1, 10e-3, 2.5, [](double) { return 0.5; }, period);
        sim::Time t = 0.0;
        for (int k = 0; k < 100000; ++k) {
            sim::Time next = h.nextChange(t);
            ASSERT_GT(next, t) << "period " << period << ", step " << k;
            ASSERT_LT(next, t + 1.5 * period) << "period " << period;
            t = next;
        }
    }
}

TEST(Harvester, IlluminationClampedToUnit)
{
    SolarArray h(1, 10e-3, 2.5, [](double) { return 3.0; }, 1.0);
    EXPECT_DOUBLE_EQ(h.power(0.0), 10e-3);
}

TEST(Harvester, RfHarvesterLowVoltage)
{
    RfHarvester h(200e-6, 1.2);
    EXPECT_DOUBLE_EQ(h.power(0.0), 200e-6);
    EXPECT_DOUBLE_EQ(h.voltage(0.0), 1.2);
}
