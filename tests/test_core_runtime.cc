/**
 * @file
 * Tests for the Capybara core: mode registry, annotation semantics
 * under each policy, the preburst state machine, burst activation and
 * retry, provisioning, and the V_top alternative mechanism.
 */

#include <gtest/gtest.h>

#include <cmath>
#include <memory>

#include "core/energy_mode.hh"
#include "core/provision.hh"
#include "core/runtime.hh"
#include "core/threshold_alt.hh"
#include "dev/device.hh"
#include "power/parts.hh"
#include "sim/simulator.hh"
#include "sim/work.hh"

using namespace capy;
using namespace capy::core;
using namespace capy::dev;
using namespace capy::power;
using namespace capy::rt;

namespace
{

/**
 * Standard two-bank board: hard-wired small bank (ceramic+tantalum)
 * plus a switched large EDLC bank, mirroring the paper's TA board.
 */
struct Board
{
    sim::Simulator sim;
    std::unique_ptr<Device> device;
    PowerSystem *ps = nullptr;
    int bigBank = -1;
    App app;
    ModeRegistry registry;
    ModeId smallMode, bigMode;

    explicit Board(double harvest_mw = 10.0,
                   SwitchKind kind = SwitchKind::NormallyOpen)
    {
        PowerSystem::Spec spec;
        auto psys = std::make_unique<PowerSystem>(
            spec,
            std::make_unique<RegulatedSupply>(harvest_mw * 1e-3, 3.3));
        psys->addBank("small", parallelCompose({parts::x5r100uF()
                                                    .parallel(3),
                                                parts::tant100uF()}));
        SwitchSpec sw;
        sw.kind = kind;
        bigBank = psys->addSwitchedBank("big", parts::edlc7_5mF(), sw);
        ps = psys.get();
        device = std::make_unique<Device>(
            sim, std::move(psys), msp430fr5969(),
            Device::PowerMode::Intermittent);
        smallMode = registry.define("small", {});
        bigMode = registry.define("big", {bigBank});
    }
};

} // namespace

TEST(ModeRegistry, DefineAndLookup)
{
    ModeRegistry reg;
    ModeId a = reg.define("sample", {});
    ModeId b = reg.define("radio", {1, 2});
    EXPECT_EQ(reg.count(), 2u);
    EXPECT_EQ(reg.name(a), "sample");
    EXPECT_EQ(reg.banks(b), (std::vector<int>{1, 2}));
    EXPECT_EQ(reg.find("radio"), b);
    EXPECT_EQ(reg.find("missing"), kNoMode);
}

TEST(Annotation, Constructors)
{
    Annotation c = Annotation::config(2);
    EXPECT_EQ(c.kind, AnnKind::Config);
    EXPECT_EQ(c.mode, 2);
    Annotation b = Annotation::burst(1);
    EXPECT_EQ(b.kind, AnnKind::Burst);
    Annotation p = Annotation::preburst(3, 4);
    EXPECT_EQ(p.kind, AnnKind::Preburst);
    EXPECT_EQ(p.burstMode, 3);
    EXPECT_EQ(p.mode, 4);
    EXPECT_STREQ(annKindName(AnnKind::Preburst), "preburst");
}

TEST(Policy, Names)
{
    EXPECT_STREQ(policyName(Policy::Continuous), "Pwr");
    EXPECT_STREQ(policyName(Policy::Fixed), "Fixed");
    EXPECT_STREQ(policyName(Policy::CapyR), "Capy-R");
    EXPECT_STREQ(policyName(Policy::CapyP), "Capy-P");
}

TEST(Runtime, ConfigActivatesModeBeforeTask)
{
    Board board;
    bool big_active_during_task = false;
    Task *t = board.app.addTask("tx", 5e-3, 0.0,
                                [&](Kernel &) -> const Task * {
                                    big_active_during_task =
                                        board.ps->bankActive(
                                            board.bigBank);
                                    return nullptr;
                                });
    Kernel kernel(*board.device, board.app);
    Runtime rt(kernel, board.registry, Policy::CapyP);
    rt.annotate(t, Annotation::config(board.bigMode));
    rt.install();
    kernel.start();
    board.sim.runUntil(600.0);
    EXPECT_TRUE(kernel.halted());
    EXPECT_TRUE(big_active_during_task);
    EXPECT_GE(rt.stats().reconfigurations, 1u);
    EXPECT_GE(rt.stats().rechargePauses, 1u)
        << "big bank was empty; a recharge pause is mandatory";
}

TEST(Runtime, ConfigSkipsPauseWhenAlreadyFull)
{
    Board board;
    int runs = 0;
    Task *t2 = board.app.addTask("again", 1e-3, 0.0,
                                 [&](Kernel &) -> const Task * {
                                     ++runs;
                                     return nullptr;
                                 });
    Task *t1 = board.app.addTask("first", 1e-3, 0.0,
                                 [&](Kernel &) -> const Task * {
                                     ++runs;
                                     return t2;
                                 });
    board.app.setEntry(t1);
    Kernel kernel(*board.device, board.app);
    Runtime rt(kernel, board.registry, Policy::CapyP);
    // Both tasks in the small mode: the second must not pause (the
    // tiny tasks barely dent the buffer, which refills instantly
    // under 10 mW harvest while... it does not: harvest during
    // operation is small. What matters is the buffer is not *empty*.)
    rt.annotate(t1, Annotation::config(board.smallMode));
    rt.annotate(t2, Annotation::config(board.smallMode));
    rt.install();
    kernel.start();
    board.sim.runUntil(600.0);
    EXPECT_EQ(runs, 2);
    EXPECT_TRUE(kernel.halted());
}

TEST(Runtime, FixedPolicyIgnoresAnnotations)
{
    Board board;
    Task *t = board.app.addTask("tx", 1e-3, 0.0,
                                [&](Kernel &) -> const Task * {
                                    return nullptr;
                                });
    Kernel kernel(*board.device, board.app);
    Runtime rt(kernel, board.registry, Policy::Fixed);
    rt.annotate(t, Annotation::config(board.bigMode));
    rt.install();
    kernel.start();
    board.sim.runUntil(600.0);
    EXPECT_TRUE(kernel.halted());
    EXPECT_EQ(rt.stats().reconfigurations, 0u);
    EXPECT_FALSE(board.ps->bankActive(board.bigBank));
}

TEST(Runtime, NoGateWherePolicyAnnotatesNothing)
{
    // Pwr and Fixed compile every annotation away, so install() puts
    // no gate on the kernel: the kernel's task word is the only NV
    // cell written on the shared memory. A gate installed anyway
    // writes the believed mode on every boot. Capy-R still gates.
    for (Policy policy :
         {Policy::Continuous, Policy::Fixed, Policy::CapyR}) {
        SCOPED_TRACE(policyName(policy));
        // 1 mW against a 7 mW loop: the small bank browns out.
        Board board(1.0);
        NvMemory mem;
        Task *loop = nullptr;
        loop = board.app.addTask("loop", 2e-3, 5e-3,
                                 [&](Kernel &) -> const Task * {
                                     return loop;
                                 });
        Kernel kernel(*board.device, board.app, &mem);
        Runtime rt(kernel, board.registry, policy, &mem);
        rt.annotate(loop, Annotation::config(board.smallMode));
        rt.install();
        const std::uint64_t gates_before = sim::workCounts.gates;
        kernel.start();
        board.sim.runUntil(60.0);
        const std::uint64_t gates = sim::workCounts.gates - gates_before;
        ASSERT_GT(kernel.stats().transitions, 0u);
        ASSERT_GT(board.device->stats().powerFailures, 0u)
            << "the run must reboot for the boot-time writes to show";
        if (policy == Policy::CapyR) {
            EXPECT_GT(gates, 0u);
            EXPECT_GT(mem.writes(), kernel.stats().transitions);
        } else {
            EXPECT_EQ(gates, 0u);
            EXPECT_EQ(mem.writes(), kernel.stats().transitions);
        }
    }
}

TEST(RuntimeDeathTest, AnnotateAfterInstallAborts)
{
    // install() resolves every task's annotation once; the gate would
    // never see a later one.
    Board board;
    Task *t = board.app.addTask("tx", 1e-3, 0.0,
                                [](Kernel &) -> const Task * {
                                    return nullptr;
                                });
    Kernel kernel(*board.device, board.app);
    Runtime rt(kernel, board.registry, Policy::CapyP);
    rt.install();
    EXPECT_DEATH(rt.annotate(t, Annotation::config(board.bigMode)),
                 "after install");
}

TEST(Runtime, PreburstChargesBurstBanksAheadOfTime)
{
    Board board;
    double big_v_at_proc = -1.0;
    bool big_active_at_proc = true;
    Task *proc = board.app.addTask(
        "proc", 2e-3, 0.0, [&](Kernel &) -> const Task * {
            big_v_at_proc = board.ps->bank(board.bigBank).voltage();
            big_active_at_proc =
                board.ps->bankActive(board.bigBank);
            return nullptr;
        });
    Kernel kernel(*board.device, board.app);
    Runtime rt(kernel, board.registry, Policy::CapyP);
    rt.annotate(proc,
                Annotation::preburst(board.bigMode, board.smallMode));
    rt.install();
    kernel.start();
    board.sim.runUntil(2000.0);
    ASSERT_TRUE(kernel.halted());
    // The burst bank was charged to the penalized ceiling, then
    // deactivated before proc ran.
    double ceiling = board.ps->systemSpec().maxStorageVoltage -
                     board.ps->systemSpec().prechargePenaltyVoltage;
    EXPECT_FALSE(big_active_at_proc);
    EXPECT_NEAR(big_v_at_proc, ceiling, 0.15);
    EXPECT_GE(rt.stats().prechargePhases, 1u);
}

TEST(Runtime, BurstRunsImmediatelyOnPrechargedBanks)
{
    Board board;
    Task *tx = nullptr;
    double proc_done_at = -1.0;
    double tx_started_at = -1.0;
    tx = board.app.addTask("tx", 30e-3, 12e-3,
                           [&](Kernel &k) -> const Task * {
                               tx_started_at = k.now() - 30e-3;
                               return nullptr;
                           });
    Task *proc = board.app.addTask(
        "proc", 2e-3, 0.0, [&](Kernel &k) -> const Task * {
            proc_done_at = k.now();
            return tx;
        });
    board.app.setEntry(proc);
    Kernel kernel(*board.device, board.app);
    Runtime rt(kernel, board.registry, Policy::CapyP);
    rt.annotate(proc,
                Annotation::preburst(board.bigMode, board.smallMode));
    rt.annotate(tx, Annotation::burst(board.bigMode));
    rt.install();
    kernel.start();
    board.sim.runUntil(2000.0);
    ASSERT_TRUE(kernel.halted());
    ASSERT_GE(rt.stats().burstActivations, 1u);
    // The burst started within microseconds of proc committing: no
    // recharge pause on the critical path.
    EXPECT_LT(tx_started_at - proc_done_at, 1e-3);
}

TEST(Runtime, CapyRDegradesBurstToConfig)
{
    Board board;
    Task *tx = board.app.addTask("tx", 30e-3, 12e-3,
                                 [&](Kernel &) -> const Task * {
                                     return nullptr;
                                 });
    Task *proc = board.app.addTask("proc", 2e-3, 0.0,
                                   [&](Kernel &) -> const Task * {
                                       return tx;
                                   });
    board.app.setEntry(proc);
    Kernel kernel(*board.device, board.app);
    Runtime rt(kernel, board.registry, Policy::CapyR);
    rt.annotate(proc,
                Annotation::preburst(board.bigMode, board.smallMode));
    rt.annotate(tx, Annotation::burst(board.bigMode));
    rt.install();
    kernel.start();
    board.sim.runUntil(2000.0);
    ASSERT_TRUE(kernel.halted());
    EXPECT_EQ(rt.stats().burstActivations, 0u);
    EXPECT_EQ(rt.stats().prechargePhases, 0u);
    EXPECT_GE(rt.stats().rechargePauses, 1u)
        << "Capy-R must recharge the big bank on the critical path";
}

TEST(Runtime, PreburstSkipsWhenBanksStillCharged)
{
    Board board;
    int iterations = 0;
    Task *proc = nullptr;
    proc = board.app.addTask("proc", 2e-3, 0.0,
                             [&](Kernel &) -> const Task * {
                                 return ++iterations < 3 ? proc
                                                         : nullptr;
                             });
    Kernel kernel(*board.device, board.app);
    Runtime rt(kernel, board.registry, Policy::CapyP);
    rt.annotate(proc,
                Annotation::preburst(board.bigMode, board.smallMode));
    rt.install();
    kernel.start();
    board.sim.runUntil(3000.0);
    ASSERT_TRUE(kernel.halted());
    // First iteration charges the burst bank; later iterations find
    // it still charged (only leakage since) and skip the pause.
    EXPECT_GE(rt.stats().prechargePhases, 1u);
    EXPECT_GE(rt.stats().prechargeSkips, 1u);
}

TEST(Runtime, BurstRetryRechargesAfterFailure)
{
    // Make the burst workload larger than the pre-charged energy so
    // the first attempt browns out, then verify the runtime falls
    // back to charging fully before the retry.
    Board board;
    int tx_runs = 0;
    Task *tx = board.app.addTask(
        // Long, hungry burst: ~20 s at ~28 mW >> 7.5 mF pre-charge.
        "tx", 20.0, 20e-3, [&](Kernel &) -> const Task * {
            ++tx_runs;
            return nullptr;
        });
    Task *proc = board.app.addTask("proc", 2e-3, 0.0,
                                   [&](Kernel &) -> const Task * {
                                       return tx;
                                   });
    board.app.setEntry(proc);
    Kernel kernel(*board.device, board.app);
    Runtime rt(kernel, board.registry, Policy::CapyP);
    rt.annotate(proc,
                Annotation::preburst(board.bigMode, board.smallMode));
    rt.annotate(tx, Annotation::burst(board.bigMode));
    rt.install();
    kernel.start();
    board.sim.runUntil(3000.0);
    EXPECT_GE(rt.stats().burstActivations, 1u);
    EXPECT_GE(rt.stats().burstRecharges, 1u)
        << "failed burst must recharge on retry";
    EXPECT_EQ(tx_runs, 0) << "20 s at 28 mW exceeds even a full bank; "
                             "the task can never complete";
}

TEST(Runtime, ReconfigurationSurvivesLatchLossWithNormallyOpen)
{
    // Charge time of the big EDLC bank at low harvest power exceeds
    // the latch retention (~180 s), so the switch reverts mid-charge.
    // The runtime must still eventually execute the big-mode task.
    Board board(0.15, SwitchKind::NormallyOpen);  // 0.15 mW: ~250 s
    int runs = 0;
    Task *t = board.app.addTask("tx", 5e-3, 0.0,
                                [&](Kernel &) -> const Task * {
                                    ++runs;
                                    return nullptr;
                                });
    Kernel kernel(*board.device, board.app);
    Runtime rt(kernel, board.registry, Policy::CapyP);
    rt.annotate(t, Annotation::config(board.bigMode));
    rt.install();
    kernel.start();
    board.sim.runUntil(4000.0);
    EXPECT_EQ(runs, 1);
    // The switch reverted at least once during the long charges.
    EXPECT_GE(board.ps->bankSwitch(board.bigBank)->reversions(), 1u);
}

TEST(Provision, MeasureTaskEnergy)
{
    Task t{"t", 0.035, 12e-3, 0.0, nullptr, 0.0};
    McuSpec mcu = msp430fr5969();
    TaskEnergy e = measureTaskEnergy(t, mcu);
    EXPECT_NEAR(e.railPower, mcu.activePower + 12e-3, 1e-12);
    EXPECT_NEAR(e.duration, 0.035 + mcu.bootTime, 1e-12);
    EXPECT_GT(e.railEnergy(), 0.0);
}

TEST(Provision, RequiredCapacitanceScalesWithEnergy)
{
    PowerSystem::Spec spec;
    TaskEnergy small{10e-3, 0.01};
    TaskEnergy large{10e-3, 0.1};
    double c1 = requiredCapacitance(small, spec, parts::x5r100uF());
    double c2 = requiredCapacitance(large, spec, parts::x5r100uF());
    EXPECT_GT(c1, 0.0);
    EXPECT_NEAR(c2 / c1, 10.0, 0.5);
}

TEST(Provision, DeratingInflatesCapacitance)
{
    PowerSystem::Spec spec;
    TaskEnergy demand{10e-3, 0.05};
    double c1 =
        requiredCapacitance(demand, spec, parts::x5r100uF(), 1.0);
    double c2 =
        requiredCapacitance(demand, spec, parts::x5r100uF(), 1.5);
    EXPECT_NEAR(c2 / c1, 1.5, 1e-3);
}

TEST(Provision, TrialFindsWorkingSize)
{
    PowerSystem::Spec spec;
    Task t{"sample", 8e-3, 1e-3, 0.0, nullptr, 0.0};
    ProvisionResult r = provisionByTrial(t, msp430fr5969(), spec,
                                         parts::x5r100uF(), 10e-3, 64);
    ASSERT_TRUE(r.feasible);
    EXPECT_GE(r.unitCount, 1);
    EXPECT_LE(r.unitCount, 64);
    // The analytic bound should land within a small factor.
    TaskEnergy e = measureTaskEnergy(t, msp430fr5969());
    double analytic =
        requiredCapacitance(e, spec, parts::x5r100uF(), 1.0);
    EXPECT_LT(std::abs(analytic - r.capacitance),
              std::max(analytic, r.capacitance));
}

TEST(Provision, TrialReportsInfeasible)
{
    PowerSystem::Spec spec;
    Task t{"huge", 100.0, 50e-3, 0.0, nullptr, 0.0};
    ProvisionResult r = provisionByTrial(t, msp430fr5969(), spec,
                                         parts::x5r100uF(), 10e-3, 4);
    EXPECT_FALSE(r.feasible);
}

TEST(ThresholdAlt, MechanismCostsMatchPaper)
{
    MechanismSpec sw = switchedBankMechanism();
    MechanismSpec vt = vtopThresholdMechanism();
    MechanismSpec vb = vbottomThresholdMechanism();
    // §5.2: threshold circuit occupies twice the area, 1.5x leakage.
    EXPECT_NEAR(vt.areaPerModule / sw.areaPerModule, 2.0, 1e-9);
    EXPECT_NEAR(vt.leakageCurrent / sw.leakageCurrent, 1.5, 1e-9);
    EXPECT_GT(vt.writeEndurance, 0u);
    EXPECT_EQ(sw.writeEndurance, 0u);
    EXPECT_TRUE(sw.smallDefaultBank);
    EXPECT_FALSE(vb.smallDefaultBank);
}

TEST(ThresholdAlt, ControllerWritesEepromPerChange)
{
    PowerSystem::Spec spec;
    PowerSystem ps(spec,
                   std::make_unique<RegulatedSupply>(10e-3, 3.3));
    ps.addBank("fixed", parts::edlc7_5mF());
    NvMemory eeprom("potentiometer", 5);
    VtopController ctl(ps, &eeprom);
    ctl.setThreshold(2.0);
    ctl.setThreshold(2.0);  // unchanged: no write
    ctl.setThreshold(2.8);
    EXPECT_EQ(ctl.eepromWrites(), 2u);
    EXPECT_DOUBLE_EQ(ps.topVoltage(), 2.8);
}
