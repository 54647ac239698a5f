/**
 * @file
 * Cross-layer integration tests: determinism of full application
 * runs, trace- and orbit-driven devices, experiment-driver helpers,
 * and end-to-end behaviours that span every library layer.
 */

#include <gtest/gtest.h>

#include <cmath>
#include <memory>

#include "apps/csr.hh"
#include "apps/grc.hh"
#include "apps/ta.hh"
#include "dev/device.hh"
#include "env/light.hh"
#include "power/parts.hh"
#include "power/power_system.hh"
#include "rt/kernel.hh"
#include "sim/logging.hh"
#include "sim/simulator.hh"

using namespace capy;
using namespace capy::apps;
using namespace capy::core;

namespace
{

env::EventSchedule
tinySchedule(std::uint64_t seed)
{
    sim::Rng rng(seed, 0x7a);
    return env::EventSchedule::poissonCount(rng, 8, 900.0, 60.0);
}

} // namespace

TEST(Integration, AppRunsAreDeterministic)
{
    auto sched = tinySchedule(9);
    RunMetrics a = runTempAlarm(Policy::CapyP, sched, 9, 900.0);
    RunMetrics b = runTempAlarm(Policy::CapyP, sched, 9, 900.0);
    EXPECT_EQ(a.summary.correct, b.summary.correct);
    EXPECT_EQ(a.samples, b.samples);
    EXPECT_EQ(a.device.boots, b.device.boots);
    EXPECT_EQ(a.runtime.reconfigurations, b.runtime.reconfigurations);
    EXPECT_DOUBLE_EQ(a.summary.latency.mean(),
                     b.summary.latency.mean());
}

TEST(Integration, DifferentSeedsDifferentSensorNoise)
{
    auto sched = tinySchedule(9);
    RunMetrics a = runGestureRemote(GrcVariant::Fast, Policy::CapyP,
                                    sched, 1, 900.0);
    RunMetrics b = runGestureRemote(GrcVariant::Fast, Policy::CapyP,
                                    sched, 2, 900.0);
    // Same events, different radio/sensor noise: totals equal,
    // details typically not.
    EXPECT_EQ(a.summary.total, b.summary.total);
}

TEST(Integration, BankCyclesReported)
{
    auto sched = tinySchedule(10);
    RunMetrics capy = runTempAlarm(Policy::CapyP, sched, 10, 900.0);
    EXPECT_GT(bankCyclesFor(capy, "small"), 0u);
    EXPECT_EQ(bankCyclesFor(capy, "no-such-bank"), 0u);
    ASSERT_EQ(capy.bankCycles.size(), 2u);

    RunMetrics fixed = runTempAlarm(Policy::Fixed, sched, 10, 900.0);
    ASSERT_EQ(fixed.bankCycles.size(), 1u);
    EXPECT_EQ(fixed.bankCycles[0].first, "fixed");
}

TEST(Integration, OrbitDrivenDeviceSleepsInEclipse)
{
    // A device on orbit light should boot many times while sunlit and
    // stall during eclipse.
    sim::Simulator simulator;
    env::OrbitLight orbit;
    power::PowerSystem::Spec spec;
    auto ps = std::make_unique<power::PowerSystem>(
        spec, std::make_unique<power::SolarArray>(
                  2, 10e-3, 2.5, orbit.illumination(),
                  orbit.changePeriod()));
    ps->addBank("b", power::parts::x5r100uF().parallel(4));
    dev::Device device(simulator, std::move(ps), dev::msp430fr5969(),
                       dev::Device::PowerMode::Intermittent);

    std::vector<double> boot_times;
    device.setHooks(
        {.onBoot =
             [&] {
                 boot_times.push_back(simulator.now());
                 device.runWorkload(22e-3, 0.05);
             },
         .onPowerFail = nullptr,
         .onWorkloadDone = [&] { device.powerDown(); }});
    device.start();
    simulator.runUntil(orbit.spec().orbitPeriod);

    ASSERT_GT(boot_times.size(), 10u);
    int lit = 0, dark = 0;
    for (double t : boot_times)
        (orbit.sunlit(t) ? lit : dark)++;
    EXPECT_GT(lit, 10);
    // The small bank cannot carry repeated boots through a 36 min
    // eclipse; at most a couple of residual boots right after sunset.
    EXPECT_LT(dark, lit / 5);
}

TEST(Integration, TraceDrivenDayNightCycle)
{
    // A synthetic "day": strong morning, cloudy noon dip, dark night.
    sim::Simulator simulator;
    power::PowerSystem::Spec spec;
    auto ps = std::make_unique<power::PowerSystem>(
        spec,
        std::make_unique<power::TraceHarvester>(
            power::TraceHarvester(
                {{0.0, 6e-3}, {100.0, 1e-3}, {200.0, 6e-3},
                 {300.0, 0.0}},
                3.3, false)));
    ps->addBank("b", power::parts::x5r100uF().parallel(4));
    dev::Device device(simulator, std::move(ps), dev::msp430fr5969(),
                       dev::Device::PowerMode::Intermittent);

    int boots_by_phase[4] = {0, 0, 0, 0};
    device.setHooks(
        {.onBoot =
             [&] {
                 int phase =
                     std::min(3, int(simulator.now() / 100.0));
                 ++boots_by_phase[phase];
                 device.runWorkload(22e-3, 0.02);
             },
         .onPowerFail = nullptr,
         .onWorkloadDone = [&] { device.powerDown(); }});
    device.start();
    simulator.runUntil(500.0);

    EXPECT_GT(boots_by_phase[0], boots_by_phase[1])
        << "cloudy dip slows the boot rate";
    EXPECT_GT(boots_by_phase[2], boots_by_phase[1])
        << "afternoon recovery speeds it up again";
    EXPECT_LE(boots_by_phase[3], 1) << "night: nothing left to boot "
                                       "on";
}

TEST(Integration, CsrMisclassifiedWhenChainRunsLate)
{
    // Force staleness: Capy-R recharges between detection and the
    // distance scan, so CSR reports carry stale data and score as
    // misclassified, not correct.
    auto sched = tinySchedule(11);
    RunMetrics capy_r = runCorrSense(Policy::CapyR, sched, 11, 900.0);
    EXPECT_EQ(capy_r.summary.correct, 0u);
    EXPECT_GT(capy_r.summary.misclassified +
                  capy_r.summary.proximityOnly +
                  capy_r.summary.missed,
              0u);
}

TEST(Integration, HigherLossRadioLowersAccuracyOnly)
{
    // With the same schedule, radio loss (seed-dependent) can only
    // reduce "correct"; detection (proximity) is unaffected.
    auto sched = tinySchedule(12);
    RunMetrics m = runGestureRemote(GrcVariant::Compact, Policy::CapyP,
                                    sched, 12, 900.0);
    EXPECT_EQ(m.summary.total, sched.size());
    EXPECT_GE(m.packetsSent, m.summary.correct);
}

TEST(Integration, ContinuousPolicyNeverCharges)
{
    auto sched = tinySchedule(13);
    RunMetrics m = runTempAlarm(Policy::Continuous, sched, 13, 900.0);
    EXPECT_EQ(m.chargeSpans, 0u);
    EXPECT_EQ(m.device.powerFailures, 0u);
    EXPECT_EQ(m.runtime.reconfigurations, 0u);
}

TEST(Integration, FixedPolicySingleBank)
{
    auto sched = tinySchedule(14);
    RunMetrics m = runTempAlarm(Policy::Fixed, sched, 14, 900.0);
    EXPECT_EQ(m.runtime.burstActivations, 0u);
    EXPECT_EQ(m.runtime.prechargePhases, 0u);
    EXPECT_EQ(m.runtime.rechargePauses, 0u)
        << "no reconfiguration -> no voluntary pauses; only natural "
           "brown-outs";
    EXPECT_GT(m.device.powerFailures, 0u);
}

TEST(Integration, ScheduleBuildersMatchPaperScale)
{
    auto ts = taSchedule(1);
    auto gs = grcSchedule(1);
    EXPECT_EQ(ts.size(), kTaEvents);
    EXPECT_EQ(gs.size(), kGrcEvents);
    EXPECT_LT(ts.lastTime(), kTaHorizon);
    EXPECT_LT(gs.lastTime(), kGrcHorizon);
    EXPECT_GT(ts.at(0).time, 30.0) << "cold-start guard";
}

TEST(Integration, GestureFastFewerKernelTransitionsThanCompact)
{
    auto sched = tinySchedule(15);
    RunMetrics fast = runGestureRemote(GrcVariant::Fast, Policy::CapyP,
                                       sched, 15, 900.0);
    RunMetrics compact = runGestureRemote(GrcVariant::Compact,
                                          Policy::CapyP, sched, 15,
                                          900.0);
    // Compact splits gesture/tx into separate tasks: at least as many
    // transitions per event chain.
    EXPECT_GE(double(compact.kernel.transitions),
              0.9 * double(fast.kernel.transitions));
}

TEST(Integration, WarnFreeOnNominalApps)
{
    unsigned long before = warnCount();
    auto sched = tinySchedule(16);
    (void)runTempAlarm(Policy::CapyP, sched, 16, 900.0);
    (void)runGestureRemote(GrcVariant::Fast, Policy::CapyP, sched, 16,
                           900.0);
    EXPECT_EQ(warnCount(), before)
        << "nominal runs must not emit model warnings";
}
