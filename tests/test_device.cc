/**
 * @file
 * Tests for the Device layer: intermittent boot cycles, workload
 * brown-outs, voluntary power-down, continuous mode, and peripheral/
 * radio/NV-memory models.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstdint>
#include <functional>
#include <memory>
#include <vector>

#include "dev/device.hh"
#include "dev/nvmem.hh"
#include "dev/peripheral.hh"
#include "dev/radio.hh"
#include "power/parts.hh"
#include "power/units.hh"
#include "sim/simulator.hh"
#include "sim/trace.hh"
#include "sim/work.hh"

using namespace capy;
using namespace capy::dev;
using namespace capy::power;

namespace
{

std::unique_ptr<PowerSystem>
smallBankSystem(double harvest_mw = 10.0)
{
    PowerSystem::Spec spec;
    auto ps = std::make_unique<PowerSystem>(
        spec,
        std::make_unique<RegulatedSupply>(harvest_mw * 1e-3, 3.3));
    ps->addBank("base", parts::x5r100uF().parallel(4));
    return ps;
}

} // namespace

TEST(Device, BootsWhenBufferFull)
{
    sim::Simulator s;
    Device d(s, smallBankSystem(), msp430fr5969(),
             Device::PowerMode::Intermittent);
    bool booted = false;
    double boot_time = -1;
    d.setHooks({.onBoot =
                    [&] {
                        booted = true;
                        boot_time = s.now();
                    },
                .onPowerFail = nullptr,
                .onWorkloadDone = nullptr});
    d.start();
    s.runUntil(10.0);
    EXPECT_TRUE(booted);
    EXPECT_GT(boot_time, 0.0);
    EXPECT_EQ(d.stats().boots, 1u);
    EXPECT_TRUE(d.isOn());
}

TEST(Device, WorkloadCompletesWithinEnergy)
{
    sim::Simulator s;
    Device d(s, smallBankSystem(), msp430fr5969(),
             Device::PowerMode::Intermittent);
    bool done = false;
    d.setHooks({.onBoot =
                    [&] {
                        // 730 uF-class bank: a few ms of compute fits.
                        d.runWorkload(8.4e-3, 2e-3);
                    },
                .onPowerFail = nullptr,
                .onWorkloadDone = [&] { done = true; }});
    d.start();
    s.runUntil(20.0);
    EXPECT_TRUE(done);
    EXPECT_EQ(d.stats().workloadsCompleted, 1u);
    EXPECT_EQ(d.stats().powerFailures, 0u);
}

TEST(Device, OversizedWorkloadBrownsOutAndRetries)
{
    sim::Simulator s;
    Device d(s, smallBankSystem(), msp430fr5969(),
             Device::PowerMode::Intermittent);
    int boots = 0;
    int fails = 0;
    d.setHooks({.onBoot =
                    [&] {
                        ++boots;
                        // Far more energy than the small bank stores.
                        d.runWorkload(20e-3, 10.0);
                    },
                .onPowerFail = [&] { ++fails; },
                .onWorkloadDone = [&] { ADD_FAILURE(); }});
    d.start();
    s.runUntil(30.0);
    EXPECT_GE(boots, 2) << "device must recharge and retry";
    EXPECT_GE(fails, 2);
    EXPECT_EQ(d.stats().workloadsCompleted, 0u);
    EXPECT_GE(d.stats().workloadsAborted, 2u);
}

TEST(Device, PowerDownRechargesAndReboots)
{
    sim::Simulator s;
    Device d(s, smallBankSystem(), msp430fr5969(),
             Device::PowerMode::Intermittent);
    int boots = 0;
    d.setHooks({.onBoot =
                    [&] {
                        ++boots;
                        if (boots == 1)
                            d.runWorkload(8.4e-3, 1e-3);
                    },
                .onPowerFail = nullptr,
                .onWorkloadDone = [&] { d.powerDown(); }});
    d.start();
    s.runUntil(30.0);
    EXPECT_EQ(boots, 2);
    EXPECT_EQ(d.stats().powerFailures, 0u);
}

TEST(Device, ContinuousModeNeverFails)
{
    sim::Simulator s;
    Device d(s, smallBankSystem(0.0), msp430fr5969(),
             Device::PowerMode::Continuous);
    int completions = 0;
    d.setHooks({.onBoot = [&] { d.runWorkload(50e-3, 0.1); },
                .onPowerFail = nullptr,
                .onWorkloadDone =
                    [&] {
                        if (++completions < 100)
                            d.runWorkload(50e-3, 0.1);
                    }});
    d.start();
    s.runUntil(60.0);
    EXPECT_EQ(completions, 100);
    EXPECT_EQ(d.stats().powerFailures, 0u);
}

TEST(Device, ContinuousBootIsFast)
{
    sim::Simulator s;
    Device d(s, smallBankSystem(0.0), msp430fr5969(),
             Device::PowerMode::Continuous);
    double boot_at = -1;
    d.setHooks({.onBoot = [&] { boot_at = s.now(); },
                .onPowerFail = nullptr,
                .onWorkloadDone = nullptr});
    d.start();
    s.run();
    EXPECT_NEAR(boot_at, msp430fr5969().bootTime, 1e-12);
}

TEST(Device, ChargingTimeTracked)
{
    sim::Simulator s;
    Device d(s, smallBankSystem(), msp430fr5969(),
             Device::PowerMode::Intermittent);
    int boots = 0;
    d.setHooks({.onBoot =
                    [&] {
                        if (++boots == 1)
                            d.runWorkload(8.4e-3, 1e-3);
                    },
                .onPowerFail = nullptr,
                .onWorkloadDone = [&] { d.powerDown(); }});
    d.start();
    s.runUntil(10.0);
    EXPECT_GT(d.stats().timeCharging, 0.0);
    EXPECT_GT(d.stats().timeOn, 0.0);
    // Charging spans summed as they closed.
    EXPECT_GE(d.stats().chargeSpans, 1u);
    EXPECT_GT(d.stats().chargeSpanMax, 0.0);
    EXPECT_LE(d.stats().chargeSpanMax, d.stats().timeCharging);
}

TEST(Device, UnharvestableDeviceStaysOff)
{
    sim::Simulator s;
    PowerSystem::Spec spec;
    spec.input.bypassEnabled = false;
    spec.systemQuiescentPower = 100e-6;
    auto ps = std::make_unique<PowerSystem>(
        spec, std::make_unique<RegulatedSupply>(50e-6, 3.3));
    ps->addBank("b", parts::edlc7_5mF());
    capy::setQuiet(true);
    Device d(s, std::move(ps), msp430fr5969(),
             Device::PowerMode::Intermittent);
    sim::SpanTrace trace;
    d.attachSpanTrace(&trace);
    bool booted = false;
    d.setHooks({.onBoot = [&] { booted = true; },
                .onPowerFail = nullptr,
                .onWorkloadDone = nullptr});
    d.start();
    s.runUntil(1000.0);
    capy::setQuiet(false);
    EXPECT_FALSE(booted);
    // Its one charging span never closes: counted by neither.
    EXPECT_TRUE(trace.spans().empty());
    EXPECT_EQ(trace.openLabel(), "charging");
    EXPECT_EQ(d.stats().chargeSpans, 0u);
    EXPECT_EQ(d.stats().timeCharging, 0.0);
    EXPECT_EQ(d.stats().chargeSpanMax, 0.0);
}

TEST(Device, BigBankBootsSlowerThanSmall)
{
    auto boot_time = [](CapacitorSpec cap) {
        sim::Simulator s;
        PowerSystem::Spec spec;
        auto ps = std::make_unique<PowerSystem>(
            spec, std::make_unique<RegulatedSupply>(10e-3, 3.3));
        ps->addBank("b", cap);
        Device d(s, std::move(ps), msp430fr5969(),
                 Device::PowerMode::Intermittent);
        double at = -1;
        d.setHooks({.onBoot = [&] { at = s.now(); },
                    .onPowerFail = nullptr,
                    .onWorkloadDone = nullptr});
        d.start();
        s.runUntil(2000.0);
        return at;
    };
    double small = boot_time(parts::x5r100uF().parallel(4));
    double large = boot_time(parts::edlc7_5mF().parallel(9));
    ASSERT_GT(small, 0.0);
    ASSERT_GT(large, 0.0);
    EXPECT_GT(large, 20.0 * small);
}

namespace
{

/**
 * A device running a back-to-back chain of workloads, each started by
 * the previous one's onWorkloadDone hook, the way the Chain kernel
 * runs tasks: every completion after the first is a candidate to run
 * in place.
 */
struct WorkloadChain
{
    sim::Simulator sim;
    Device dev;
    double duration;
    std::size_t limit;
    /** Completion instants, in order. */
    std::vector<double> done;
    /** Runs in each completion before the next workload starts. */
    std::function<void()> onDone;

    WorkloadChain(Device::PowerMode mode, double duration_s,
                  std::size_t max_workloads = 1000000)
        : dev(sim, smallBankSystem(), msp430fr5969(), mode),
          duration(duration_s), limit(max_workloads)
    {
        dev.setHooks({.onBoot = [this] { next(); },
                      .onPowerFail = nullptr,
                      .onWorkloadDone = [this] { completed(); }});
    }

    void next() { dev.runWorkload(8.4e-3, duration); }

    void
    completed()
    {
        done.push_back(sim.now());
        if (onDone)
            onDone();
        if (done.size() < limit)
            next();
    }
};

} // namespace

TEST(DeviceInPlace, ChainUnderRunUntilStopsAtTheLimit)
{
    WorkloadChain c(Device::PowerMode::Continuous, 0.1);
    const std::uint64_t in_place = sim::workCounts.inPlace;
    c.dev.start();
    c.sim.runUntil(2.0);
    EXPECT_DOUBLE_EQ(c.sim.now(), 2.0);
    ASSERT_EQ(c.done.size(), 19u);  // boot 5 ms, then every 0.1 s
    EXPECT_LE(c.done.back(), 2.0);
    // The completion after the limit is still pending, not lost.
    EXPECT_EQ(c.sim.pendingEvents(), 1u);
    EXPECT_EQ(c.dev.stats().workloadsCompleted, 19u);
    // Boot and the first completion were queued; the rest ran in
    // place, and every one counts as an executed event.
    EXPECT_EQ(c.sim.eventsExecuted(), 20u);
    EXPECT_EQ(sim::workCounts.inPlace - in_place, 18u);
    c.sim.runUntil(3.0);
    ASSERT_EQ(c.done.size(), 29u);
    EXPECT_GT(c.done[19], 2.0);
}

TEST(DeviceInPlace, EventQueuedAtTheCompletionTimeRunsFirst)
{
    WorkloadChain c(Device::PowerMode::Continuous, 0.25, 6);
    std::size_t seen = 0;
    c.onDone = [&] {
        // Queued before the fourth workload starts, at exactly the
        // instant it will complete (runWorkload's now + duration).
        if (c.done.size() == 3)
            c.sim.scheduleAt(c.sim.now() + c.duration,
                             [&] { seen = c.done.size(); });
    };
    c.dev.start();
    c.sim.run();
    ASSERT_EQ(c.done.size(), 6u);
    EXPECT_EQ(seen, 3u) << "the queued event must run before the tied "
                           "completion";
    EXPECT_EQ(c.done[3], c.done[2] + 0.25);
    EXPECT_EQ(c.sim.eventsExecuted(), 8u);
}

TEST(DeviceInPlace, StopFromTheHookEndsTheChain)
{
    WorkloadChain c(Device::PowerMode::Continuous, 0.1, 10);
    c.sim.setPostEventHook([&] {
        if (c.done.size() == 4)
            c.sim.stop();
    });
    c.dev.start();
    c.sim.run();
    EXPECT_EQ(c.done.size(), 4u);
    EXPECT_DOUBLE_EQ(c.sim.now(), c.done.back());
    EXPECT_EQ(c.sim.pendingEvents(), 1u);
    c.sim.setPostEventHook({});
    c.sim.run();
    EXPECT_EQ(c.done.size(), 10u);
}

TEST(DeviceInPlace, HookRunsOncePerEventInPlaceOrQueued)
{
    // Intermittent, with workloads long enough to brown out the small
    // bank now and then: boots, charge wakes and brown-outs are
    // queued, and completions run in place between them.
    WorkloadChain c(Device::PowerMode::Intermittent, 20e-3);
    std::uint64_t hooks = 0;
    c.sim.setPostEventHook([&] {
        ++hooks;
        EXPECT_EQ(c.sim.eventsExecuted(), hooks);
    });
    const std::uint64_t in_place = sim::workCounts.inPlace;
    c.dev.start();
    c.sim.runUntil(30.0);
    const std::uint64_t ran_in_place = sim::workCounts.inPlace - in_place;
    EXPECT_EQ(hooks, c.sim.eventsExecuted());
    EXPECT_GT(c.dev.stats().powerFailures, 0u);
    EXPECT_GT(ran_in_place, 0u);
    EXPECT_LT(ran_in_place, c.dev.stats().workloadsCompleted);
}

TEST(DeviceInPlace, FailureFromTheHookAbortsTheDeferredWorkload)
{
    WorkloadChain c(Device::PowerMode::Intermittent, 1e-3);
    std::uint64_t aborted_before = 0;
    bool injected = false;
    c.sim.setPostEventHook([&] {
        // Right after the third completion, whose hook has started
        // the fourth workload.
        if (injected || c.done.size() != 3)
            return;
        injected = true;
        aborted_before = c.dev.stats().workloadsAborted;
        EXPECT_TRUE(
            c.dev.injectPowerFailure(Device::FailureKind::Glitch));
        EXPECT_EQ(c.dev.stats().workloadsAborted, aborted_before + 1);
        EXPECT_EQ(c.dev.lastAbortedWorkload().elapsed, 0.0);
        EXPECT_EQ(c.dev.lastAbortedWorkload().railPower, 8.4e-3);
        EXPECT_FALSE(c.dev.isOn());
        c.sim.stop();
    });
    c.dev.start();
    c.sim.runUntil(10.0);
    ASSERT_TRUE(injected);
    EXPECT_EQ(c.dev.stats().injectedFailures, 1u);
    EXPECT_EQ(c.dev.stats().powerFailures, 1u);
    EXPECT_EQ(c.dev.stats().workloadsAborted, aborted_before + 1);
    // The aborted workload's hook never fired, and nothing of it
    // stays queued: the one pending event is the charge wake.
    EXPECT_EQ(c.dev.stats().workloadsCompleted, 3u);
    EXPECT_EQ(c.done.size(), 3u);
    EXPECT_TRUE(c.dev.isCharging());
    EXPECT_EQ(c.sim.pendingEvents(), 1u);
}

TEST(DeviceWorkloadHook, FiresOncePerCompletedWorkload)
{
    // Workloads long enough to brown the small bank out now and then:
    // each completion fires the hook once, each abort never.
    WorkloadChain c(Device::PowerMode::Intermittent, 20e-3);
    c.dev.start();
    c.sim.runUntil(30.0);
    EXPECT_GT(c.dev.stats().workloadsAborted, 0u);
    EXPECT_EQ(c.done.size(), c.dev.stats().workloadsCompleted);
    // One completion per instant: the hook never fires twice for a
    // workload.
    for (std::size_t i = 1; i < c.done.size(); ++i)
        EXPECT_GT(c.done[i], c.done[i - 1]) << i;
}

TEST(DeviceWorkloadHook, SilentAfterTheLastWorkload)
{
    sim::Simulator s;
    Device d(s, smallBankSystem(0.0), msp430fr5969(),
             Device::PowerMode::Continuous);
    int fired = 0;
    d.setHooks({.onBoot = [&] { d.runWorkload(8.4e-3, 0.5); },
                .onPowerFail = nullptr,
                .onWorkloadDone = [&] { ++fired; }});
    d.start();
    s.run();
    EXPECT_EQ(fired, 1);
    EXPECT_EQ(d.stats().workloadsCompleted, 1u);
    EXPECT_EQ(s.pendingEvents(), 0u);
}

TEST(DeviceWorkloadHook, NotFiredForABrownOut)
{
    sim::Simulator s;
    Device d(s, smallBankSystem(), msp430fr5969(),
             Device::PowerMode::Intermittent);
    int boots = 0;
    int fired = 0;
    d.setHooks({.onBoot =
                    [&] {
                        // The first workload outlasts the bank; the
                        // second fits.
                        if (++boots == 1)
                            d.runWorkload(20e-3, 10.0);
                        else if (boots == 2)
                            d.runWorkload(8.4e-3, 1e-3);
                    },
                .onPowerFail = nullptr,
                .onWorkloadDone = [&] { ++fired; }});
    d.start();
    s.runUntil(30.0);
    ASSERT_EQ(boots, 2);
    EXPECT_EQ(d.stats().workloadsAborted, 1u);
    EXPECT_EQ(fired, 1);
    EXPECT_EQ(d.stats().workloadsCompleted, 1u);
}

TEST(DeviceWorkloadHook, NotFiredForAPowerDown)
{
    sim::Simulator s;
    Device d(s, smallBankSystem(0.0), msp430fr5969(),
             Device::PowerMode::Continuous);
    int boots = 0;
    int fired = 0;
    d.setHooks({.onBoot =
                    [&] {
                        if (++boots == 1) {
                            d.runWorkload(8.4e-3, 1.0);
                            // Park halfway through the workload.
                            s.schedule(0.5, [&] { d.powerDown(); });
                        } else if (boots == 2) {
                            d.runWorkload(8.4e-3, 1e-3);
                        }
                    },
                .onPowerFail = nullptr,
                .onWorkloadDone = [&] { ++fired; }});
    d.start();
    s.run();
    ASSERT_EQ(boots, 2);
    EXPECT_EQ(fired, 1);
    EXPECT_EQ(d.stats().workloadsCompleted, 1u);
    EXPECT_EQ(d.stats().powerFailures, 0u);
}

TEST(DeviceWorkloadHook, NotFiredForAnInjectedFailure)
{
    sim::Simulator s;
    Device d(s, smallBankSystem(), msp430fr5969(),
             Device::PowerMode::Intermittent);
    int boots = 0;
    int fired = 0;
    d.setHooks({.onBoot =
                    [&] {
                        // Both workloads fit the bank; the first is
                        // cut short halfway.
                        d.runWorkload(8.4e-3, 2e-3);
                        if (++boots == 1)
                            s.schedule(1e-3, [&] {
                                EXPECT_TRUE(d.injectPowerFailure(
                                    Device::FailureKind::Glitch));
                            });
                    },
                .onPowerFail = nullptr,
                .onWorkloadDone = [&] { ++fired; }});
    d.start();
    s.runUntil(30.0);
    ASSERT_EQ(boots, 2);
    EXPECT_EQ(d.stats().injectedFailures, 1u);
    EXPECT_EQ(d.stats().workloadsAborted, 1u);
    EXPECT_EQ(fired, 1);
    EXPECT_EQ(d.stats().workloadsCompleted, 1u);
}

TEST(DeviceWorkloadHook, WorkloadStartedInTheHookRunsInPlace)
{
    // The boot's workload completes through the queue; the four
    // started from the hook complete in place.
    WorkloadChain c(Device::PowerMode::Continuous, 0.1, 5);
    const std::uint64_t in_place = sim::workCounts.inPlace;
    c.dev.start();
    c.sim.run();
    ASSERT_EQ(c.done.size(), 5u);
    EXPECT_EQ(sim::workCounts.inPlace - in_place, 4u);
    EXPECT_EQ(c.sim.eventsExecuted(), 6u);
}

namespace
{

/**
 * An intermittent device that charges many times: each boot runs one
 * workload, every third one too big for the bank (a brown-out), the
 * rest followed by a voluntary power-down. Boot 5's workload is cut
 * short by an injected Collapse.
 */
struct CyclingDevice
{
    sim::Simulator sim;
    Device dev;
    int boots = 0;
    /** Stop the run from the onPowerFail hook of this failure (0:
     *  never), so it ends inside the charging span that follows. */
    std::uint64_t stopAtFailure = 0;

    explicit CyclingDevice(sim::SpanTrace *trace)
        : dev(sim, smallBankSystem(), msp430fr5969(),
              Device::PowerMode::Intermittent)
    {
        if (trace)
            dev.attachSpanTrace(trace);
        dev.setHooks({.onBoot = [this] { booted(); },
                      .onPowerFail =
                          [this] {
                              // Counted before the hook runs.
                              if (dev.stats().powerFailures ==
                                  stopAtFailure)
                                  sim.stop();
                          },
                      .onWorkloadDone = [this] { dev.powerDown(); }});
    }

    void
    booted()
    {
        if (++boots % 3 == 0) {
            dev.runWorkload(20e-3, 10.0);
            return;
        }
        dev.runWorkload(8.4e-3, 2e-3);
        if (boots == 5)
            sim.schedule(1e-3, [this] {
                EXPECT_TRUE(dev.injectPowerFailure());
            });
    }
};

/** What a trace's completed charging spans give, summed in order. */
struct ChargeSummary
{
    std::uint64_t spans = 0;
    double total = 0.0;
    double max = 0.0;
};

ChargeSummary
chargeSummary(const sim::SpanTrace &trace)
{
    ChargeSummary c;
    for (const sim::Span &s : trace.spans()) {
        if (s.label != "charging")
            continue;
        ++c.spans;
        c.total += s.duration();
        c.max = std::max(c.max, s.duration());
    }
    return c;
}

std::uint64_t
bits(double v)
{
    return std::bit_cast<std::uint64_t>(v);
}

void
expectStatsMatchTrace(const Device::Stats &st, const sim::SpanTrace &trace)
{
    ChargeSummary c = chargeSummary(trace);
    EXPECT_EQ(st.chargeSpans, c.spans);
    EXPECT_EQ(bits(st.timeCharging), bits(c.total));
    EXPECT_EQ(bits(st.chargeSpanMax), bits(c.max));
}

void
expectSameStats(const Device::Stats &a, const Device::Stats &b)
{
    EXPECT_EQ(a.boots, b.boots);
    EXPECT_EQ(a.powerFailures, b.powerFailures);
    EXPECT_EQ(a.bootFailures, b.bootFailures);
    EXPECT_EQ(a.injectedFailures, b.injectedFailures);
    EXPECT_EQ(a.workloadsCompleted, b.workloadsCompleted);
    EXPECT_EQ(a.workloadsAborted, b.workloadsAborted);
    EXPECT_EQ(bits(a.timeOn), bits(b.timeOn));
    EXPECT_EQ(bits(a.timeCharging), bits(b.timeCharging));
    EXPECT_EQ(a.chargeSpans, b.chargeSpans);
    EXPECT_EQ(bits(a.chargeSpanMax), bits(b.chargeSpanMax));
}

} // namespace

TEST(DeviceSpans, StatsMatchAnAttachedTraceBitForBit)
{
    sim::SpanTrace trace;
    CyclingDevice c(&trace);
    c.dev.start();
    c.sim.runUntil(60.0);
    const Device::Stats &st = c.dev.stats();
    ASSERT_GE(st.chargeSpans, 20u);
    ASSERT_GE(st.powerFailures, 5u);
    ASSERT_EQ(st.injectedFailures, 1u);
    ASSERT_GE(st.workloadsCompleted, 10u);
    expectStatsMatchTrace(st, trace);
    // Boot and on spans are logged too, one of each per boot.
    EXPECT_EQ(trace.countFor("on"), st.boots);
    EXPECT_GE(trace.countFor("boot"), st.boots);
    EXPECT_EQ(bits(trace.totalFor("on")), bits(st.timeOn));
}

TEST(DeviceSpans, SameStatsWithoutATrace)
{
    sim::SpanTrace trace;
    CyclingDevice traced(&trace);
    CyclingDevice bare(nullptr);
    traced.dev.start();
    bare.dev.start();
    traced.sim.runUntil(60.0);
    bare.sim.runUntil(60.0);
    expectSameStats(bare.dev.stats(), traced.dev.stats());
    EXPECT_EQ(bare.sim.eventsExecuted(), traced.sim.eventsExecuted());
}

TEST(DeviceSpans, SpanOpenAtTheHorizonIsCountedByNeither)
{
    sim::SpanTrace trace;
    CyclingDevice c(&trace);
    c.stopAtFailure = 4;
    c.dev.start();
    c.sim.runUntil(60.0);
    ASSERT_EQ(c.dev.stats().powerFailures, 4u);
    ASSERT_TRUE(c.dev.isCharging());
    ASSERT_TRUE(trace.isOpen());
    EXPECT_EQ(trace.openLabel(), "charging");
    EXPECT_GE(c.dev.stats().chargeSpans, 4u);
    expectStatsMatchTrace(c.dev.stats(), trace);
}

TEST(Peripherals, CatalogSane)
{
    auto specs = {periph::apds9960Gesture(), periph::tmp36(),
                  periph::magnetometer(), periph::led(),
                  periph::phototransistor(), periph::accelerometer(),
                  periph::gyroscope(), periph::apds9960Proximity()};
    for (const auto &p : specs) {
        EXPECT_FALSE(p.name.empty());
        EXPECT_GT(p.activePower, 0.0) << p.name;
        EXPECT_GE(p.warmupTime, 0.0) << p.name;
    }
}

TEST(Peripherals, GestureWindowMatchesPaper)
{
    // §6.1.1: minimum gesture duration is 250 ms.
    EXPECT_DOUBLE_EQ(periph::apds9960Gesture().minActiveTime, 0.25);
}

TEST(Peripherals, PowerAggregation)
{
    std::vector<PeripheralSpec> set{periph::tmp36(), periph::led()};
    EXPECT_NEAR(totalActivePower(set), 180e-6 + 5e-3, 1e-12);
    EXPECT_DOUBLE_EQ(maxWarmup(set), periph::tmp36().warmupTime);
}

TEST(Peripherals, SensorReadsSourceAndCounts)
{
    Sensor s(periph::tmp36(), [](sim::Time t) { return 20.0 + t; });
    EXPECT_DOUBLE_EQ(s.read(5.0), 25.0);
    EXPECT_DOUBLE_EQ(s.read(7.0), 27.0);
    EXPECT_EQ(s.samplesTaken(), 2u);
}

TEST(Radio, BleTimingMatchesPaper)
{
    // §2: a 25-byte BLE packet occupies the air for ~35 ms; the
    // atomic session adds the radio power-up and stack init.
    EXPECT_NEAR(airTime(bleRadio(), 25), 35e-3, 1e-9);
    EXPECT_LT(airTime(bleRadio(), 8), airTime(bleRadio(), 25));
    EXPECT_NEAR(txDuration(bleRadio(), 25),
                bleRadio().startupDuration + 35e-3, 1e-9);
}

TEST(Radio, KicksatFixedFrame)
{
    // §6.6: 250 ms on air per 1-byte packet regardless of payload.
    EXPECT_DOUBLE_EQ(airTime(kicksatRadio(), 1), 0.25);
    EXPECT_DOUBLE_EQ(airTime(kicksatRadio(), 4), 0.25);
}

TEST(Radio, LossRateApproximatelyRespected)
{
    Radio r(bleRadio());
    sim::Rng rng(99);
    int delivered = 0;
    for (int i = 0; i < 10000; ++i)
        delivered += r.attemptDelivery(rng);
    EXPECT_EQ(r.packetsSent(), 10000u);
    EXPECT_NEAR(double(r.packetsLost()) / 10000.0, 0.02, 0.01);
    EXPECT_EQ(delivered + int(r.packetsLost()), 10000);
}

TEST(NvMemory, CellSurvivesAndCounts)
{
    NvMemory mem("fram");
    NvCell<int> cell(&mem, 7);
    EXPECT_EQ(cell.get(), 7);
    cell.set(42);
    EXPECT_EQ(cell.get(), 42);
    EXPECT_EQ(mem.writes(), 1u);
    EXPECT_EQ(mem.reads(), 2u);
    EXPECT_EQ(cell.writeCount(), 1u);
}

TEST(NvMemory, EnduranceWarning)
{
    capy::setQuiet(true);
    NvMemory mem("eeprom", 3);
    NvCell<int> cell(&mem);
    for (int i = 0; i < 5; ++i)
        cell.set(i);
    EXPECT_TRUE(mem.wornOut());
    capy::setQuiet(false);
}

TEST(Mcu, SpecsDerivedQuantities)
{
    McuSpec m = msp430fr5969();
    // Fig. 3 calibration: ~8.5 nJ per effective operation.
    EXPECT_NEAR(m.energyPerOp(), 8.5e-9, 0.5e-9);
    EXPECT_DOUBLE_EQ(m.timeForOps(m.opRate), 1.0);
    EXPECT_GT(m.activePower, m.sleepPower);
}
