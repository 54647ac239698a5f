/**
 * @file
 * Tests for the Chain-style intermittent kernel: task chaining,
 * atomic restart semantics under injected power failures, channel
 * commit behaviour, gates, sleep pacing, and halting.
 */

#include <gtest/gtest.h>

#include <map>
#include <memory>
#include <string>
#include <vector>

#include "dev/device.hh"
#include "power/parts.hh"
#include "power/power_system.hh"
#include "rt/audit.hh"
#include "rt/channel.hh"
#include "rt/kernel.hh"
#include "rt/task.hh"
#include "sim/simulator.hh"

using namespace capy;
using namespace capy::dev;
using namespace capy::power;
using namespace capy::rt;

namespace
{

struct Rig
{
    sim::Simulator sim;
    std::unique_ptr<Device> device;
    App app;

    explicit Rig(double harvest_mw = 10.0,
                 CapacitorSpec cap = parts::x5r100uF().parallel(4),
                 Device::PowerMode mode =
                     Device::PowerMode::Intermittent)
    {
        PowerSystem::Spec spec;
        auto ps = std::make_unique<PowerSystem>(
            spec,
            std::make_unique<RegulatedSupply>(harvest_mw * 1e-3, 3.3));
        ps->addBank("base", cap);
        device = std::make_unique<Device>(sim, std::move(ps),
                                          msp430fr5969(), mode);
    }
};

} // namespace

TEST(Kernel, RunsChainOfTasks)
{
    Rig rig;
    std::vector<std::string> order;
    Task *t3 = rig.app.addTask("c", 1e-3, 0.0, [&](Kernel &) {
        order.push_back("c");
        return nullptr;
    });
    Task *t2 = rig.app.addTask("b", 1e-3, 0.0,
                               [&](Kernel &) -> const Task * {
                                   order.push_back("b");
                                   return t3;
                               });
    Task *t1 = rig.app.addTask("a", 1e-3, 0.0,
                               [&](Kernel &) -> const Task * {
                                   order.push_back("a");
                                   return t2;
                               });
    rig.app.setEntry(t1);
    Kernel k(*rig.device, rig.app);
    k.start();
    rig.sim.runUntil(20.0);
    EXPECT_EQ(order, (std::vector<std::string>{"a", "b", "c"}));
    EXPECT_TRUE(k.halted());
    EXPECT_EQ(k.stats().taskCompletions, 3u);
    EXPECT_EQ(k.stats().transitions, 2u);
}

TEST(Kernel, LoopingAppKeepsRunning)
{
    Rig rig;
    int iterations = 0;
    Task *loop = rig.app.addTask("loop", 1e-3, 0.0,
                                 [&](Kernel &) -> const Task * {
                                     ++iterations;
                                     return nullptr;  // replaced below
                                 });
    // Rebind the body now that we can name the task.
    *loop = Task{"loop", 1e-3, 0.0, 0.0,
                 [&, loop](Kernel &) -> const Task * {
                     ++iterations;
                     return loop;
                 },
                 0.0};
    Kernel k(*rig.device, rig.app);
    k.start();
    rig.sim.runUntil(30.0);
    EXPECT_GT(iterations, 100);
    EXPECT_FALSE(k.halted());
}

TEST(Kernel, OversizedTaskRestartsWithoutEffects)
{
    // A task too big for the bank must never apply its body.
    Rig rig;
    int big_effects = 0;
    Task *big = rig.app.addTask("big", 10.0, 20e-3,
                                [&](Kernel &) -> const Task * {
                                    ++big_effects;
                                    return nullptr;
                                });
    rig.app.setEntry(big);
    Kernel k(*rig.device, rig.app);
    k.start();
    rig.sim.runUntil(60.0);
    EXPECT_EQ(big_effects, 0);
    EXPECT_GT(k.stats().taskRestarts, 0u);
    EXPECT_EQ(k.currentTask(), big) << "NV pointer must stay on the "
                                       "interrupted task";
    EXPECT_EQ(k.abortedTask(), big);
    EXPECT_EQ(k.taskCell().writeCount(), 0u) << "no attempt committed";
}

TEST(Kernel, MultiTaskProgressAcrossPowerFailures)
{
    // Several tasks per charge cycle; the chain must make progress
    // across many power failures with each task executing atomically
    // and in order.
    Rig rig;
    std::vector<int> log;
    Task *t2 = nullptr;
    Task *t1 = rig.app.addTask("t1", 5e-3, 0.0,
                               [&](Kernel &) -> const Task * {
                                   log.push_back(1);
                                   return t2;
                               });
    t2 = rig.app.addTask("t2", 5e-3, 0.0,
                         [&](Kernel &) -> const Task * {
                             log.push_back(2);
                             return t1;
                         });
    Kernel k(*rig.device, rig.app);
    // Every abort here interrupts a task whose successor is the other
    // task, so an NV task word written before the workload ran would
    // show at the rail-down after the abort.
    CrashAuditor auditor(*rig.device);
    auditor.watchKernel(k);
    k.start();
    rig.sim.runUntil(120.0);
    ASSERT_GT(log.size(), 20u);
    for (size_t i = 1; i < log.size(); ++i)
        EXPECT_NE(log[i], log[i - 1]) << "strict alternation expected";
    EXPECT_GT(rig.device->stats().powerFailures, 0u)
        << "test should actually exercise intermittency";
    EXPECT_EQ(k.taskCell().writeCount(), k.stats().transitions)
        << "one NV task word write per transition";
    auditor.checkNow();
    EXPECT_TRUE(auditor.clean()) << auditor.report();
    EXPECT_GT(auditor.outagesAudited(), 0u);
}

TEST(Kernel, ChannelCommitsOnlyOnCompletion)
{
    Rig rig;
    NvMemory mem;
    Channel<int> counter(&mem, 0);
    // Task increments the channel; an oversized successor never
    // commits, so the counter reflects only completed tasks.
    Task *inc = nullptr;
    Task *big = rig.app.addTask("big", 100.0, 50e-3,
                                [&](Kernel &) -> const Task * {
                                    counter.set(-999);
                                    return nullptr;
                                });
    inc = rig.app.addTask("inc", 1e-3, 0.0,
                          [&](Kernel &) -> const Task * {
                              counter.set(counter.get() + 1);
                              return big;
                          });
    rig.app.setEntry(inc);
    Kernel k(*rig.device, rig.app);
    k.start();
    rig.sim.runUntil(60.0);
    EXPECT_EQ(counter.get(), 1) << "inc committed exactly once";
}

TEST(Kernel, GateInterceptsEveryAttempt)
{
    Rig rig;
    int gate_calls = 0;
    int runs = 0;
    Task *t = rig.app.addTask("t", 1e-3, 0.0,
                              [&](Kernel &) -> const Task * {
                                  ++runs;
                                  return runs < 3 ? t : nullptr;
                              });
    (void)t;
    Kernel k(*rig.device, rig.app);
    k.setPreTaskGate([&](const Task &) {
        ++gate_calls;
        return true;
    });
    k.start();
    rig.sim.runUntil(20.0);
    EXPECT_EQ(runs, 3);
    EXPECT_EQ(gate_calls, 3);
}

TEST(Kernel, GateMayParkDevice)
{
    Rig rig;
    int gate_calls = 0;
    bool ran = false;
    rig.app.addTask("t", 1e-3, 0.0, [&](Kernel &) -> const Task * {
        ran = true;
        return nullptr;
    });
    Kernel k(*rig.device, rig.app);
    k.setPreTaskGate([&](const Task &) {
        ++gate_calls;
        if (gate_calls == 1) {
            rig.device->powerDown();  // park; gate re-runs after boot
            return false;
        }
        return true;
    });
    k.start();
    rig.sim.runUntil(30.0);
    EXPECT_TRUE(ran);
    EXPECT_EQ(gate_calls, 2);
}

TEST(KernelDeathTest, GateHoldingBackWithoutParkingAborts)
{
    // A false verdict promises the device is parked; one that leaves
    // the device on would stall the kernel silently, so it aborts.
    EXPECT_DEATH(
        {
            Rig rig;
            rig.app.addTask("t", 1e-3, 0.0,
                            [](Kernel &) -> const Task * {
                                return nullptr;
                            });
            Kernel k(*rig.device, rig.app);
            k.setPreTaskGate([](const Task &) { return false; });
            k.start();
            rig.sim.runUntil(30.0);
        },
        "without parking the device");
}

TEST(Kernel, SleepPacingDelaysNextTask)
{
    Rig rig(10.0, parts::x5r100uF().parallel(4),
            Device::PowerMode::Continuous);
    std::vector<double> times;
    Task *t = nullptr;
    t = rig.app.addTask(
        "paced", 1e-3, 0.0,
        [&](Kernel &k) -> const Task * {
            times.push_back(k.now());
            return times.size() < 3 ? t : nullptr;
        },
        0.5 /* sleepAfter */);
    Kernel k(*rig.device, rig.app);
    k.start();
    rig.sim.runUntil(10.0);
    ASSERT_EQ(times.size(), 3u);
    EXPECT_NEAR(times[1] - times[0], 0.501, 1e-6);
    EXPECT_NEAR(times[2] - times[1], 0.501, 1e-6);
}

TEST(Kernel, ContinuousPowerRunsWithoutFailures)
{
    Rig rig(0.0, parts::x5r100uF().parallel(4),
            Device::PowerMode::Continuous);
    int n = 0;
    Task *t = nullptr;
    t = rig.app.addTask("t", 1e-3, 5e-3,
                        [&](Kernel &) -> const Task * {
                            return ++n < 1000 ? t : nullptr;
                        });
    Kernel k(*rig.device, rig.app);
    k.start();
    rig.sim.runUntil(60.0);
    EXPECT_EQ(n, 1000);
    EXPECT_EQ(k.stats().taskRestarts, 0u);
}

TEST(Kernel, TasksSharingANameShareOneEnergyEntry)
{
    // Attribution is by task name: two distinct tasks called "twin"
    // accumulate into one energyByTask() entry, completed runs and
    // aborted attempts alike.
    Rig rig;
    int runs = 0;
    Task *doomed = nullptr;
    Task *second = nullptr;
    Task *first = rig.app.addTask("twin", 1e-3, 0.0,
                                  [&](Kernel &) -> const Task * {
                                      return second;
                                  });
    second = rig.app.addTask("twin", 2e-3, 5e-3,
                             [&](Kernel &) -> const Task * {
                                 return ++runs < 5 ? first : doomed;
                             });
    // Too big for the bank: every attempt browns out.
    doomed = rig.app.addTask("twin", 10.0, 20e-3,
                             [](Kernel &) -> const Task * {
                                 return nullptr;
                             });
    rig.app.setEntry(first);
    // Distinct tasks, so distinct dense indices, one name entry.
    EXPECT_EQ(first->index, 0u);
    EXPECT_EQ(second->index, 1u);
    EXPECT_EQ(doomed->index, 2u);
    Kernel k(*rig.device, rig.app);
    k.start();
    rig.sim.runUntil(60.0);

    const auto &profile = k.energyByTask();
    ASSERT_EQ(profile.size(), 1u);
    const auto &twin = profile.at("twin");
    double p = rig.device->mcu().activePower;
    EXPECT_EQ(twin.completions, 10u);
    EXPECT_NEAR(twin.railEnergy,
                5 * (p * 1e-3) + 5 * ((p + 5e-3) * 2e-3), 1e-15);
    EXPECT_NEAR(twin.activeTime, 5 * 1e-3 + 5 * 2e-3, 1e-15);
    EXPECT_EQ(twin.failedAttempts, k.stats().taskRestarts);
    EXPECT_GT(twin.failedAttempts, 0u);
    EXPECT_GT(twin.wastedEnergy, 0.0);
}

TEST(Kernel, TaskEnergyIsTheSequentialSumOfItsCompletions)
{
    // Each completion books its own rail power times its duration,
    // added in completion order: the totals must match that loop bit
    // for bit, for a task with peripheral power, one with an absolute
    // rail power and two tasks that share a name.
    Rig rig(0.0, parts::x5r100uF().parallel(4),
            Device::PowerMode::Continuous);
    std::vector<const Task *> done;
    int rounds = 0;
    Task *periph = nullptr;
    Task *radio = nullptr;
    Task *twin_a = nullptr;
    Task *twin_b = nullptr;
    periph = rig.app.addTask("periph", 1.3e-3, 3.7e-3,
                             [&](Kernel &) -> const Task * {
                                 done.push_back(periph);
                                 return radio;
                             });
    radio = rig.app.addTask("radio", 0.7e-3, 0.0,
                            [&](Kernel &) -> const Task * {
                                done.push_back(radio);
                                return twin_a;
                            });
    radio->absolutePower = 11.3e-3;
    twin_a = rig.app.addTask("twin", 0.9e-3, 1.1e-3,
                             [&](Kernel &) -> const Task * {
                                 done.push_back(twin_a);
                                 return twin_b;
                             });
    twin_b = rig.app.addTask("twin", 2.1e-3, 0.3e-3,
                             [&](Kernel &) -> const Task * {
                                 done.push_back(twin_b);
                                 return ++rounds < 37 ? periph : nullptr;
                             });
    Kernel k(*rig.device, rig.app);
    k.start();
    rig.sim.runUntil(60.0);
    ASSERT_TRUE(k.halted());
    ASSERT_EQ(done.size(), 4u * 37u);

    std::map<std::string, Kernel::TaskEnergyUse> want;
    const double p_mcu = rig.device->mcu().activePower;
    for (const Task *t : done) {
        const double power = t->absolutePower > 0.0
                                 ? t->absolutePower
                                 : p_mcu + t->extraPower;
        auto &use = want[t->name];
        ++use.completions;
        use.railEnergy += power * t->duration;
        use.activeTime += t->duration;
    }
    const auto &got = k.energyByTask();
    ASSERT_EQ(got.size(), 3u);
    for (const auto &[name, use] : want) {
        SCOPED_TRACE(name);
        ASSERT_EQ(got.count(name), 1u);
        EXPECT_EQ(got.at(name).completions, use.completions);
        EXPECT_EQ(got.at(name).railEnergy, use.railEnergy);
        EXPECT_EQ(got.at(name).activeTime, use.activeTime);
    }
}

TEST(KernelDeathTest, TaskOfAnotherAppIsCaught)
{
    // The alien task's index (0) is in range for the kernel's app, so
    // only the address check behind the dense index can tell.
    EXPECT_DEATH(
        {
            Rig rig;
            App other;
            const Task *alien = other.addTask(
                "alien", 1e-3, 0.0,
                [](Kernel &) -> const Task * { return nullptr; });
            rig.app.addTask("home", 1e-3, 0.0,
                            [alien](Kernel &) { return alien; });
            Kernel k(*rig.device, rig.app);
            k.start();
            rig.sim.runUntil(30.0);
        },
        "not one of the kernel's app");
}

TEST(Kernel, AppIndexesTasksInAddOrder)
{
    App app;
    for (const char *name : {"a", "b", "c"})
        app.addTask(name, 1e-3, 0.0,
                    [](Kernel &) -> const Task * { return nullptr; });
    for (std::size_t i = 0; i < app.taskCount(); ++i)
        EXPECT_EQ(app.taskAt(i)->index, i);
    EXPECT_EQ(app.taskAt(1), app.find("b"));
}

TEST(Kernel, AppFindByName)
{
    App app;
    app.addTask("alpha", 1e-3, 0.0,
                [](Kernel &) -> const Task * { return nullptr; });
    EXPECT_NE(app.find("alpha"), nullptr);
    EXPECT_EQ(app.find("beta"), nullptr);
    EXPECT_EQ(app.taskCount(), 1u);
}

TEST(AppDeathTest, ThousandTasksKeepTheirIndexAndAddress)
{
    App app;
    std::vector<const Task *> added;
    for (int i = 0; i < 1000; ++i)
        added.push_back(app.addTask(
            "t" + std::to_string(i), 1e-3, 0.0,
            [](Kernel &) -> const Task * { return nullptr; }));
    ASSERT_EQ(app.taskCount(), 1000u);
    for (std::size_t i = 0; i < added.size(); ++i) {
        EXPECT_EQ(app.taskAt(i), added[i]);
        EXPECT_EQ(app.taskAt(i)->index, i);
        EXPECT_EQ(added[i]->name, "t" + std::to_string(i));
    }
    EXPECT_EQ(app.entry(), added.front());
    EXPECT_EQ(app.find("t0"), added[0]);
    EXPECT_EQ(app.find("t999"), added[999]);
    EXPECT_EQ(app.find("t1000"), nullptr);
    EXPECT_DEATH(app.taskAt(1000), "task index 1000 of 1000");
}

TEST(RingChannel, PushWrapAndRead)
{
    RingChannel<int, 4> ring;
    for (int i = 0; i < 6; ++i)
        ring.push(i);
    EXPECT_TRUE(ring.full());
    EXPECT_EQ(ring.size(), 4u);
    EXPECT_EQ(ring.at(0), 2);
    EXPECT_EQ(ring.at(3), 5);
    ring.clear();
    EXPECT_EQ(ring.size(), 0u);
}

TEST(RingChannel, PartialFill)
{
    RingChannel<double, 8> ring;
    ring.push(1.5);
    ring.push(2.5);
    EXPECT_EQ(ring.size(), 2u);
    EXPECT_FALSE(ring.full());
    EXPECT_DOUBLE_EQ(ring.at(0), 1.5);
    EXPECT_DOUBLE_EQ(ring.at(1), 2.5);
}
