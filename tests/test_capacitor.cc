/**
 * @file
 * Tests for capacitor specs, parallel composition, charge-holding
 * banks, charge redistribution, and the parts catalog.
 */

#include <gtest/gtest.h>

#include <cmath>

#include "power/capacitor.hh"
#include "power/parts.hh"
#include "power/units.hh"

using namespace capy;
using namespace capy::power;

TEST(CapacitorSpec, LeakageResistanceFromCurrent)
{
    CapacitorSpec s;
    s.part = "t";
    s.capacitance = 100_uF;
    s.ratedVoltage = 6.3_V;
    s.leakageCurrent = 1_uA;
    EXPECT_DOUBLE_EQ(s.leakageResistance(), 6.3e6);
    s.leakageCurrent = 0.0;
    EXPECT_TRUE(std::isinf(s.leakageResistance()));
}

TEST(CapacitorSpec, ParallelScalesFields)
{
    CapacitorSpec s = parts::cph3225a();
    CapacitorSpec p = s.parallel(4);
    EXPECT_DOUBLE_EQ(p.capacitance, 4 * s.capacitance);
    EXPECT_DOUBLE_EQ(p.esr, s.esr / 4);
    EXPECT_DOUBLE_EQ(p.leakageCurrent, 4 * s.leakageCurrent);
    EXPECT_DOUBLE_EQ(p.volume, 4 * s.volume);
    EXPECT_DOUBLE_EQ(p.ratedVoltage, s.ratedVoltage);
}

TEST(CapacitorSpec, ComposeSumsAndMins)
{
    auto composed = parallelCompose({parts::x5r100uF(),
                                     parts::tant330uF()});
    EXPECT_DOUBLE_EQ(composed.capacitance, 430e-6);
    EXPECT_DOUBLE_EQ(composed.ratedVoltage, 6.3);
    EXPECT_DOUBLE_EQ(composed.volume, 80.0);
    // Parallel ESR below the smallest branch ESR.
    EXPECT_LT(composed.esr, parts::x5r100uF().esr);
    EXPECT_GT(composed.esr, 0.0);
}

TEST(CapacitorBank, VoltageEnergyRoundTrip)
{
    CapacitorBank b("b", parts::x5r100uF());
    b.setVoltage(3.0);
    EXPECT_NEAR(b.energy(), 0.5 * 100e-6 * 9.0, 1e-15);
    EXPECT_NEAR(b.voltage(), 3.0, 1e-12);
    EXPECT_NEAR(b.charge(), 100e-6 * 3.0, 1e-15);
}

TEST(CapacitorBank, DepositAndClamp)
{
    CapacitorBank b("b", parts::x5r100uF());
    b.setVoltage(1.0);
    double e0 = b.energy();
    b.deposit(e0);  // double the energy
    EXPECT_NEAR(b.voltage(), std::sqrt(2.0), 1e-12);
    b.deposit(-10.0);  // overdraw clamps at zero
    EXPECT_DOUBLE_EQ(b.energy(), 0.0);
    EXPECT_DOUBLE_EQ(b.voltage(), 0.0);
}

TEST(CapacitorBank, CycleCounting)
{
    CapacitorBank b("b", parts::edlc7_5mF());
    EXPECT_EQ(b.cyclesUsed(), 0u);
    b.recordCycle();
    b.recordCycle();
    EXPECT_EQ(b.cyclesUsed(), 2u);
}

TEST(Equalize, ConservesChargeNotEnergy)
{
    CapacitorBank a("a", parts::x5r100uF());
    CapacitorBank b("b", parts::tant330uF());
    a.setVoltage(3.0);
    b.setVoltage(0.0);
    double q_before = a.charge() + b.charge();
    double e_before = a.energy() + b.energy();
    std::vector<CapacitorBank *> banks{&a, &b};
    double lost = equalizeParallel(banks);
    double v = a.voltage();
    EXPECT_NEAR(a.charge() + b.charge(), q_before, q_before * 1e-12);
    EXPECT_GT(lost, 0.0);  // redistribution loss
    EXPECT_NEAR(a.energy() + b.energy(), e_before - lost, e_before * 1e-12);
    EXPECT_NEAR(b.voltage(), v, 1e-12);
    // V = q / Ctotal = 3*100u / 430u.
    EXPECT_NEAR(v, 3.0 * 100.0 / 430.0, 1e-9);
}

TEST(Equalize, EqualVoltagesUnchanged)
{
    CapacitorBank a("a", parts::x5r100uF());
    CapacitorBank b("b", parts::tant330uF());
    a.setVoltage(2.0);
    b.setVoltage(2.0);
    std::vector<CapacitorBank *> banks{&a, &b};
    EXPECT_NEAR(equalizeParallel(banks), 0.0, 1e-15);
    EXPECT_NEAR(a.voltage(), 2.0, 1e-12);
    EXPECT_NEAR(b.voltage(), 2.0, 1e-12);
}

TEST(Parts, CatalogLookup)
{
    auto spec = parts::byName("CPH3225A");
    EXPECT_EQ(spec.tech, CapTech::Edlc);
    EXPECT_DOUBLE_EQ(spec.capacitance, 11e-3);
    EXPECT_DOUBLE_EQ(spec.esr, 160.0);
}

TEST(Parts, AllHavePositiveFields)
{
    for (const auto &p : parts::all()) {
        EXPECT_GT(p.capacitance, 0.0) << p.part;
        EXPECT_GT(p.ratedVoltage, 0.0) << p.part;
        EXPECT_GT(p.volume, 0.0) << p.part;
        EXPECT_GE(p.esr, 0.0) << p.part;
    }
}

TEST(Parts, EdlcDensityBeatsCeramic)
{
    // The premise of Fig. 4: supercaps store far more per volume.
    auto ceramic = parts::x5r100uF();
    auto edlc = parts::cph3225a();
    double d_ceramic = ceramic.capacitance / ceramic.volume;
    double d_edlc = edlc.capacitance / edlc.volume;
    EXPECT_GT(d_edlc, 50.0 * d_ceramic);
}

TEST(Parts, SynthesizeScalesDensity)
{
    auto s = parts::synthesize(CapTech::Ceramic, 400e-6);
    EXPECT_DOUBLE_EQ(s.capacitance, 400e-6);
    auto ref = parts::x5r100uF();
    EXPECT_NEAR(s.volume, ref.volume * 4.0, 1e-9);
    EXPECT_NEAR(s.esr, ref.esr / 4.0, 1e-12);
}

TEST(Parts, TechNames)
{
    EXPECT_STREQ(capTechName(CapTech::Ceramic), "ceramic");
    EXPECT_STREQ(capTechName(CapTech::Tantalum), "tantalum");
    EXPECT_STREQ(capTechName(CapTech::Edlc), "EDLC");
}
