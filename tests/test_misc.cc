/**
 * @file
 * Coverage for remaining public API surface: simulator event counts,
 * RNG ranges, span accessors, parts composition edge cases, device
 * abort reporting, and schedule generators.
 */

#include <gtest/gtest.h>

#include <cmath>
#include <memory>

#include "dev/device.hh"
#include "env/events.hh"
#include "power/parts.hh"
#include "power/power_system.hh"
#include "sim/random.hh"
#include "sim/simulator.hh"
#include "sim/trace.hh"

using namespace capy;
using namespace capy::sim;

TEST(SimulatorMisc, EventsExecutedCounter)
{
    Simulator s;
    for (int i = 0; i < 5; ++i)
        s.schedule(double(i), [] {});
    s.run();
    EXPECT_EQ(s.eventsExecuted(), 5u);
}

TEST(RngMisc, UniformRangeRespected)
{
    Rng r(3);
    for (int i = 0; i < 1000; ++i) {
        double v = r.uniform(-2.0, 3.0);
        EXPECT_GE(v, -2.0);
        EXPECT_LT(v, 3.0);
    }
}

TEST(RngMisc, StreamsAreIndependent)
{
    Rng a(42, 1), b(42, 2);
    int same = 0;
    for (int i = 0; i < 100; ++i)
        same += a.next32() == b.next32();
    EXPECT_LT(same, 5);
}

TEST(SpanTraceMisc, OpenStartAccessor)
{
    SpanTrace st;
    st.open(3.5, "x");
    EXPECT_DOUBLE_EQ(st.openStart(), 3.5);
    st.close(4.0);
}

TEST(PartsMisc, ParallelOfOneIsIdentityExceptName)
{
    auto p = power::parts::x5r100uF();
    auto q = p.parallel(1);
    EXPECT_DOUBLE_EQ(q.capacitance, p.capacitance);
    EXPECT_DOUBLE_EQ(q.esr, p.esr);
    EXPECT_DOUBLE_EQ(q.volume, p.volume);
    EXPECT_NE(q.part, p.part);  // "x1" suffix
}

TEST(PartsMisc, ComposeSingle)
{
    auto c = power::parallelCompose({power::parts::tant330uF()});
    EXPECT_DOUBLE_EQ(c.capacitance, 330e-6);
    EXPECT_DOUBLE_EQ(c.esr, power::parts::tant330uF().esr);
}

TEST(DeviceMisc, AbortReportingMatchesWorkload)
{
    Simulator s;
    power::PowerSystem::Spec spec;
    auto ps = std::make_unique<power::PowerSystem>(
        spec,
        std::make_unique<power::RegulatedSupply>(10e-3, 3.3));
    ps->addBank("b", power::parts::x5r100uF().parallel(4));
    dev::Device d(s, std::move(ps), dev::msp430fr5969(),
                  dev::Device::PowerMode::Intermittent);
    bool checked = false;
    d.setHooks({.onBoot =
                    [&] {
                        d.runWorkload(30e-3, 100.0);
                    },
                .onPowerFail =
                    [&] {
                        if (checked)
                            return;
                        checked = true;
                        const auto &a = d.lastAbortedWorkload();
                        EXPECT_DOUBLE_EQ(a.railPower, 30e-3);
                        EXPECT_GT(a.elapsed, 0.0);
                        EXPECT_LT(a.elapsed, 100.0);
                        s.stop();
                    },
                .onWorkloadDone = nullptr});
    d.start();
    s.runUntil(60.0);
    EXPECT_TRUE(checked);
}

TEST(EventScheduleMisc, PlainPoissonFactory)
{
    Rng rng(5);
    auto sched = env::EventSchedule::poisson(rng, 10.0, 500.0, 50.0);
    ASSERT_FALSE(sched.empty());
    EXPECT_GT(sched.at(0).time, 50.0);
    EXPECT_LT(sched.lastTime(), 500.0);
    for (std::size_t i = 1; i < sched.size(); ++i)
        EXPECT_GT(sched.at(i).time, sched.at(i - 1).time);
}

TEST(PowerSystemMisc, HarvesterRefAndSpecAccessors)
{
    power::PowerSystem::Spec spec;
    spec.prechargePenaltyVoltage = 0.4;
    power::PowerSystem ps(
        spec, std::make_unique<power::RegulatedSupply>(5e-3, 3.3));
    EXPECT_EQ(ps.harvesterRef().name(), "regulated-supply");
    EXPECT_DOUBLE_EQ(ps.systemSpec().prechargePenaltyVoltage, 0.4);
    EXPECT_EQ(ps.numBanks(), 0);
}

TEST(PowerSystemMisc, RfHarvesterChargesOnlyViaBooster)
{
    // RF rectified voltage 1.2 V: the bypass diode stops conducting
    // almost immediately; the booster must lift the rest.
    power::PowerSystem::Spec spec;
    power::PowerSystem ps(
        spec, std::make_unique<power::RfHarvester>(500e-6, 1.2));
    ps.addBank("b", power::parts::x5r100uF());
    sim::Time t = ps.timeToFull();
    ASSERT_TRUE(std::isfinite(t));
    ps.advanceTo(t + 0.1);
    EXPECT_TRUE(ps.isFull());
    // Without the booster (bypass only, which cuts off at ~0.9 V),
    // full charge to 3 V would be impossible; sanity-check that the
    // node indeed passed the diode cutoff.
    EXPECT_GT(ps.storageVoltage(), 1.2);
}

TEST(McuMisc, Cc2650Spec)
{
    auto m = dev::cc2650();
    EXPECT_EQ(m.name, "CC2650");
    EXPECT_GT(m.activePower, 0.0);
    EXPECT_NEAR(m.energyPerOp(), 8.5e-9, 1e-9);
}
