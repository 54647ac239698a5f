/**
 * @file
 * Tests for the adversarial fault-injection subsystem: the FaultPlan
 * grammar and FaultInjector, torn multi-word NV commits through the
 * two-slot journal, device-level failure injection and its stats
 * accounting, latch retention across injected failures, crash audits
 * over every application workload, and byte-stability of faulted
 * sweeps across thread counts.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <cstddef>
#include <cstring>
#include <memory>
#include <string>
#include <vector>

#include "apps/capysat.hh"
#include "apps/csr.hh"
#include "apps/faults.hh"
#include "apps/grc.hh"
#include "apps/ta.hh"
#include "dev/mcu.hh"
#include "dev/nvmem.hh"
#include "power/parts.hh"
#include "power/power_system.hh"
#include "power/solver.hh"
#include "rt/audit.hh"
#include "rt/checkpoint.hh"
#include "sim/fault.hh"
#include "sim/random.hh"
#include "sim/simulator.hh"

using namespace capy;
using namespace capy::apps;
using namespace capy::dev;
using namespace capy::power;

namespace
{

struct FaultRig
{
    sim::Simulator sim;
    std::unique_ptr<Device> device;

    explicit FaultRig(CapacitorSpec bank = parts::edlc7_5mF(),
                      double harvest_mw = 10.0)
    {
        PowerSystem::Spec spec;
        auto ps = std::make_unique<PowerSystem>(
            spec,
            std::make_unique<RegulatedSupply>(harvest_mw * 1e-3, 3.3));
        ps->addBank("b", bank);
        device = std::make_unique<Device>(
            sim, std::move(ps), msp430fr5969(),
            Device::PowerMode::Intermittent);
    }
};

} // namespace

// --- FaultPlan / FaultInjector -------------------------------------

TEST(FaultPlan, AtTimesFiresAtExactlyThoseInstants)
{
    sim::Simulator sim;
    int fired = 0;
    sim::FaultInjector inj(sim,
                           sim::FaultPlan::atTimes({1.0, 2.5, 4.0}),
                           [&] {
                               ++fired;
                               return true;
                           });
    sim.runUntil(10.0);
    EXPECT_EQ(inj.attempts(), 3u);
    EXPECT_EQ(inj.fired(), 3u);
    ASSERT_EQ(inj.firedTimes().size(), 3u);
    EXPECT_DOUBLE_EQ(inj.firedTimes()[0], 1.0);
    EXPECT_DOUBLE_EQ(inj.firedTimes()[1], 2.5);
    EXPECT_DOUBLE_EQ(inj.firedTimes()[2], 4.0);
    EXPECT_EQ(fired, 3);
}

TEST(FaultPlan, UnpoweredAttemptsCountButDoNotFire)
{
    sim::Simulator sim;
    sim::FaultInjector inj(sim, sim::FaultPlan::atTimes({1.0, 2.0}),
                           [] { return false; });
    sim.runUntil(5.0);
    EXPECT_EQ(inj.attempts(), 2u);
    EXPECT_EQ(inj.fired(), 0u);
    EXPECT_TRUE(inj.firedTimes().empty());
}

TEST(FaultPlan, DestroyedInjectorLeavesNoAttemptQueued)
{
    sim::Simulator sim;
    int fired = 0;
    {
        sim::FaultInjector inj(sim, sim::FaultPlan::atTimes({1.0, 2.0}),
                               [&] {
                                   ++fired;
                                   return true;
                               });
        sim.runUntil(1.5);
        EXPECT_EQ(inj.attempts(), 1u);
        EXPECT_EQ(sim.pendingEvents(), 1u);
    }
    // The 2.0 attempt would run on the destroyed injector.
    EXPECT_EQ(sim.pendingEvents(), 0u);
    sim.runUntil(5.0);
    EXPECT_EQ(fired, 1);
    EXPECT_EQ(sim.eventsExecuted(), 1u);
}

TEST(FaultPlan, TimedAttemptRunsBeforeALaterScheduledEventAtItsInstant)
{
    // The injector schedules its attempts when it is built, so an
    // event scheduled afterwards for the same instant runs second.
    sim::Simulator sim;
    std::vector<std::string> log;
    sim::FaultInjector inj(sim, sim::FaultPlan::atTimes({1.0}), [&] {
        log.push_back("attempt");
        return true;
    });
    sim.scheduleAt(1.0, [&] { log.push_back("event"); });
    sim.run();
    EXPECT_EQ(log, (std::vector<std::string>{"attempt", "event"}));
}

TEST(FaultPlan, RepeatedPlanTimeIsAttemptedTwice)
{
    sim::Simulator sim;
    std::vector<std::string> log;
    sim.scheduleAt(2.0, [&] { log.push_back("before"); });
    sim::FaultInjector inj(sim, sim::FaultPlan::atTimes({2.0, 1.0, 2.0}),
                           [&] {
                               log.push_back("attempt");
                               return true;
                           });
    sim.scheduleAt(2.0, [&] { log.push_back("after"); });
    sim.run();
    EXPECT_EQ(log, (std::vector<std::string>{"attempt", "before",
                                             "attempt", "attempt",
                                             "after"}));
    EXPECT_EQ(inj.attempts(), 3u);
    EXPECT_EQ(inj.firedTimes(), (std::vector<sim::Time>{1.0, 2.0, 2.0}));
}

TEST(FaultPlan, EveryNthEventHonoursOffsetAndCap)
{
    sim::Simulator sim;
    // A self-rescheduling tick provides a stream of events.
    std::function<void()> tick = [&] {
        if (sim.now() < 20.0)
            sim.schedule(1.0, [&] { tick(); });
    };
    sim.schedule(1.0, [&] { tick(); });

    sim::FaultPlan plan = sim::FaultPlan::everyNth(3, 2);
    plan.maxAttempts = 4;
    sim::FaultInjector inj(sim, plan, [] { return true; });
    sim.runUntil(30.0);
    // Attempts after executed events 5, 8, 11, 14 and never again.
    EXPECT_EQ(inj.attempts(), 4u);
    EXPECT_EQ(inj.fired(), 4u);
}

TEST(FaultPlan, PoissonIsAPureFunctionOfItsArguments)
{
    sim::FaultPlan a = sim::FaultPlan::poisson(7, 5.0, 100.0, 1.0);
    sim::FaultPlan b = sim::FaultPlan::poisson(7, 5.0, 100.0, 1.0);
    sim::FaultPlan c = sim::FaultPlan::poisson(8, 5.0, 100.0, 1.0);
    ASSERT_FALSE(a.times.empty());
    EXPECT_EQ(a.times, b.times);
    EXPECT_NE(a.times, c.times);
    for (double t : a.times) {
        EXPECT_GE(t, 1.0);
        EXPECT_LT(t, 100.0);
    }
}

// --- Torn multi-word NV commits ------------------------------------

TEST(NvJournal, CommitAndRecoverRoundTrip)
{
    NvMemory mem("fram");
    NvJournaledCell<double> cell(&mem, -1.0);
    EXPECT_DOUBLE_EQ(cell.get(), -1.0) << "reset value before commit";
    cell.set(2.5);
    EXPECT_DOUBLE_EQ(cell.get(), 2.5);
    cell.set(3.5);
    EXPECT_DOUBLE_EQ(cell.get(), 3.5);
    EXPECT_EQ(cell.commits(), 2u);
    auto st = cell.auditState();
    EXPECT_GE(st.active, 0);
    EXPECT_FALSE(st.torn);
}

TEST(NvJournal, TornCommitAtEveryWordBoundaryIsRecovered)
{
    // A commit interrupted after any strict prefix of its words must
    // be detected and the previous committed value recovered.
    for (std::size_t words = 0;; ++words) {
        NvMemory mem("fram");
        NvJournaledCell<double> cell(&mem, 0.0);
        cell.set(1.0);
        cell.set(2.0);
        if (words >= cell.slotWords())
            break;
        cell.tearSet(9.0, words);
        EXPECT_DOUBLE_EQ(cell.get(), 2.0)
            << "torn at word " << words;
        EXPECT_EQ(cell.tornWrites(), 1u);
        EXPECT_EQ(mem.tornCommits(), 1u);
        EXPECT_DOUBLE_EQ(cell.auditRecover(), 2.0);
        // The next real commit heals the journal.
        cell.set(3.0);
        EXPECT_DOUBLE_EQ(cell.get(), 3.0);
    }
}

TEST(NvJournal, FullLengthTearDegeneratesToCommit)
{
    NvMemory mem("fram");
    NvJournaledCell<double> cell(&mem, 0.0);
    cell.set(1.0);
    cell.tearSet(5.0, cell.slotWords());
    EXPECT_DOUBLE_EQ(cell.get(), 5.0);
    EXPECT_EQ(cell.tornWrites(), 0u);
    EXPECT_EQ(mem.tornCommits(), 0u);
}

TEST(NvJournal, TearWithNewerSeqCountsARecovery)
{
    NvMemory mem("fram");
    NvJournaledCell<double> cell(&mem, 0.0);
    cell.set(1.0);
    // All words but the CRC land: the torn slot carries the newest
    // sequence number but fails verification — the canonical case the
    // journal protocol exists for.
    cell.tearSet(9.0, cell.slotWords() - 1);
    EXPECT_DOUBLE_EQ(cell.get(), 1.0);
    EXPECT_EQ(mem.tornRecoveries(), 1u);
    auto st = cell.auditState();
    EXPECT_TRUE(st.torn);
}

TEST(NvJournal, BrokenRecoveryFixtureBelievesTornSlot)
{
    NvMemory mem("fram");
    NvJournaledCell<double> cell(&mem, 0.0);
    cell.set(1.0);
    cell.tearSet(9.0, cell.slotWords() - 1);

    mem.disableRecoveryForTest(true);
    // The CRC-skipping reader returns the phantom (uncommitted)
    // value; the protocol-correct audit recovery does not. This
    // divergence is exactly what the auditor's recovery-integrity
    // check detects.
    EXPECT_DOUBLE_EQ(cell.peek(), 9.0);
    EXPECT_DOUBLE_EQ(cell.auditRecover(), 1.0);
    mem.disableRecoveryForTest(false);
    EXPECT_DOUBLE_EQ(cell.peek(), 1.0);
}

namespace
{

/** A payload whose record is five words (odd, unlike double's four). */
struct Triple
{
    std::uint32_t a, b, c;
};

/** Reference NvMemory accounting, shared by a reference journal and
 *  its copies as a copied cell shares its NvMemory. */
struct RefMemory
{
    bool broken = false;
    std::uint64_t tornRecoveries = 0;
    std::uint64_t tornCommits = 0;
};

/**
 * From-scratch reference for NvJournaledCell<T>: shadows both slot
 * images byte for byte, replays the commit protocol, and re-verifies
 * every slot's CRC on every read instead of caching validity.
 */
template <typename T>
struct RefJournal
{
    struct Record
    {
        T value;
        std::uint32_t seq;
        std::uint32_t crc;
    };
    static_assert(sizeof(Record) == sizeof(T) + 8, "padded record");

    RefMemory *mem = nullptr;
    T reset{};
    Record slot[2] = {};
    std::uint64_t writes[2] = {0, 0};
    std::uint64_t commits = 0;
    std::uint64_t tornWrites = 0;

    std::size_t words() const { return (sizeof(Record) + 3) / 4; }

    static std::uint32_t
    crcOf(const Record &r)
    {
        std::uint32_t c = nvCrc32(&r, offsetof(Record, crc));
        return c == 0 ? 1 : c;
    }

    bool
    valid(int i) const
    {
        return slot[i].crc != 0 && slot[i].crc == crcOf(slot[i]);
    }

    int
    active() const
    {
        int best = -1;
        for (int i = 0; i < 2; ++i)
            if (valid(i) && (best < 0 || slot[i].seq > slot[best].seq))
                best = i;
        return best;
    }

    Record
    compose(const T &v) const
    {
        std::uint32_t hi = 0;
        for (int i = 0; i < 2; ++i)
            if (valid(i))
                hi = std::max(hi, slot[i].seq);
        Record r{v, hi + 1, 0};
        r.crc = crcOf(r);
        return r;
    }

    int target() const { return active() < 0 ? 0 : 1 - active(); }

    void
    set(const T &v)
    {
        int t = target();
        slot[t] = compose(v);
        ++writes[t];
        ++commits;
    }

    void
    tearSet(const T &v, std::size_t n)
    {
        if (n == words()) {
            set(v);
            return;
        }
        Record full = compose(v);
        int t = target();
        std::memcpy(&slot[t], &full, n * 4);
        ++writes[t];
        ++tornWrites;
        if (mem)
            ++mem->tornCommits;
    }

    T
    auditRecover() const
    {
        int a = active();
        return a < 0 ? reset : slot[a].value;
    }

    T
    peek() const
    {
        if (mem && mem->broken) {
            if (writes[0] + writes[1] == 0)
                return reset;
            return (slot[0].seq >= slot[1].seq ? slot[0] : slot[1]).value;
        }
        return auditRecover();
    }

    T
    get()
    {
        int a = active();
        if (mem && !mem->broken && a >= 0) {
            int o = 1 - a;
            if (writes[o] > 0 && !valid(o) &&
                slot[o].seq >= slot[a].seq)
                ++mem->tornRecoveries;
        }
        return peek();
    }

    bool
    torn() const
    {
        return commits + tornWrites > 0 && (!valid(0) || !valid(1)) &&
               writes[valid(0) ? 1 : 0] > 0;
    }
};

template <typename T>
bool
sameBytes(const T &a, const T &b)
{
    return std::memcmp(&a, &b, sizeof(T)) == 0;
}

template <typename T>
void
expectMatches(const NvJournaledCell<T> &cell, const RefJournal<T> &ref,
              const NvMemory *mem, const std::string &where)
{
    EXPECT_TRUE(sameBytes(cell.peek(), ref.peek())) << where;
    EXPECT_TRUE(sameBytes(cell.auditRecover(), ref.auditRecover()))
        << where;
    NvJournalState st = cell.auditState();
    for (int i = 0; i < 2; ++i) {
        EXPECT_EQ(st.valid[i], ref.valid(i)) << where << " slot " << i;
        EXPECT_EQ(st.seq[i], ref.slot[i].seq) << where << " slot " << i;
    }
    EXPECT_EQ(st.active, ref.active()) << where;
    EXPECT_EQ(st.torn, ref.torn()) << where;
    EXPECT_EQ(st.commits, ref.commits) << where;
    EXPECT_EQ(st.tornWrites, ref.tornWrites) << where;
    EXPECT_EQ(cell.commits(), ref.commits) << where;
    EXPECT_EQ(cell.tornWrites(), ref.tornWrites) << where;
    if (mem) {
        EXPECT_EQ(mem->tornRecoveries(), ref.mem->tornRecoveries)
            << where;
        EXPECT_EQ(mem->tornCommits(), ref.mem->tornCommits) << where;
    }
}

/**
 * Drive @p cell and @p ref through @p steps seeded random set /
 * tearSet / recovery-fixture toggles, reading through get() and
 * comparing every observable after each step. Returns the word counts
 * the tears covered.
 */
template <typename T, typename Draw>
std::vector<bool>
driveJournal(NvJournaledCell<T> &cell, RefJournal<T> &ref,
             NvMemory *mem, sim::Rng &rng, int steps, Draw draw)
{
    std::vector<bool> torn_at(ref.words() + 1, false);
    for (int step = 0; step < steps; ++step) {
        std::string where = "step " + std::to_string(step);
        double op = rng.uniform();
        T v = draw(rng);
        if (op < 0.4) {
            cell.set(v);
            ref.set(v);
        } else if (op < 0.9) {
            auto n = static_cast<std::size_t>(
                rng.uniformInt(0, ref.words()));
            torn_at[n] = true;
            cell.tearSet(v, n);
            ref.tearSet(v, n);
            where += " tear " + std::to_string(n);
        } else if (mem) {
            ref.mem->broken = !ref.mem->broken;
            mem->disableRecoveryForTest(ref.mem->broken);
        }
        EXPECT_TRUE(sameBytes(cell.get(), ref.get())) << where;
        expectMatches(cell, ref, mem, where);
    }
    return torn_at;
}

template <typename T, typename Draw>
void
journalDifferential(std::uint64_t seed, bool with_memory, Draw draw)
{
    sim::Rng rng(seed);
    NvMemory mem("fram");
    NvMemory *m = with_memory ? &mem : nullptr;
    RefMemory ref_mem;
    T reset = draw(rng);
    NvJournaledCell<T> cell(m, reset);
    RefJournal<T> ref;
    ref.mem = with_memory ? &ref_mem : nullptr;
    ref.reset = reset;
    ASSERT_EQ(cell.slotWords(), ref.words());
    expectMatches(cell, ref, m, "fresh");

    std::vector<bool> covered =
        driveJournal(cell, ref, m, rng, 300, draw);
    for (std::size_t n = 0; n < covered.size(); ++n)
        EXPECT_TRUE(covered[n]) << "no tear of " << n << " words";

    // A copy carries the cached slot validity with the slot bytes and
    // keeps working on its own.
    NvJournaledCell<T> copy(cell);
    RefJournal<T> ref_copy = ref;
    expectMatches(copy, ref_copy, m, "copy");
    driveJournal(copy, ref_copy, m, rng, 100, draw);
}

} // namespace

TEST(NvJournal, CachedReadsMatchUncachedReference)
{
    auto draw_double = [](sim::Rng &rng) {
        // Few distinct values make tears that leave a slot's bytes
        // unchanged, so that it still verifies, common.
        return static_cast<double>(rng.uniformInt(0, 3));
    };
    auto draw_triple = [](sim::Rng &rng) {
        auto w = [&] {
            return static_cast<std::uint32_t>(rng.uniformInt(0, 2));
        };
        return Triple{w(), w(), w()};
    };
    for (std::uint64_t seed = 1; seed <= 8; ++seed) {
        SCOPED_TRACE("seed " + std::to_string(seed));
        journalDifferential<double>(seed, true, draw_double);
        journalDifferential<double>(seed, false, draw_double);
        journalDifferential<Triple>(seed, true, draw_triple);
    }
}

namespace
{

/** Bit-at-a-time reflected CRC-32 (IEEE): no tables, no slicing. */
std::uint32_t
bitwiseCrc32(const unsigned char *bytes, std::size_t len)
{
    std::uint32_t crc = 0xffffffffu;
    for (std::size_t i = 0; i < len; ++i) {
        crc ^= bytes[i];
        for (int bit = 0; bit < 8; ++bit)
            crc = (crc & 1u) ? (crc >> 1) ^ 0xedb88320u : crc >> 1;
    }
    return crc ^ 0xffffffffu;
}

} // namespace

TEST(NvCrc32, KnownAnswer)
{
    const char check[] = "123456789";
    EXPECT_EQ(nvCrc32(check, 9), 0xcbf43926u);
    EXPECT_EQ(nvCrc32(check, 0), 0u);
}

TEST(NvCrc32, MatchesBitwiseReferenceAtEveryLengthAndAlignment)
{
    // Lengths 0-64 cross the 8-byte slicing stride and its tails,
    // including the 8-, 12- and 16-byte record prefixes that
    // NvJournaledCell seals; offsets 0-7 cover every alignment.
    sim::Rng rng(0xc3c, 1);
    std::vector<unsigned char> buf(64 + 8);
    for (int round = 0; round < 4; ++round) {
        for (auto &b : buf)
            b = static_cast<unsigned char>(rng.next32());
        for (std::size_t off = 0; off < 8; ++off) {
            for (std::size_t len = 0; len <= 64; ++len) {
                ASSERT_EQ(nvCrc32(buf.data() + off, len),
                          bitwiseCrc32(buf.data() + off, len))
                    << "round " << round << " offset " << off
                    << " length " << len;
            }
        }
    }
}

// --- Device-level injection ----------------------------------------

TEST(InjectFailure, InvisibleToAnUnpoweredDevice)
{
    FaultRig rig;
    EXPECT_FALSE(rig.device->injectPowerFailure())
        << "not started yet";
    rig.device->start();
    // Immediately after start the device is still charging.
    EXPECT_TRUE(rig.device->isCharging());
    EXPECT_FALSE(rig.device->injectPowerFailure());
    EXPECT_EQ(rig.device->stats().injectedFailures, 0u);
    EXPECT_EQ(rig.device->stats().powerFailures, 0u);
}

TEST(InjectFailure, CollapseDrainsStorageGlitchKeepsIt)
{
    for (auto kind : {Device::FailureKind::Collapse,
                      Device::FailureKind::Glitch}) {
        FaultRig rig;
        bool injected = false, hit = false;
        double v_before = 0.0, v_after = 0.0, drained = 0.0;
        rig.device->setHooks(Device::Hooks{
            .onBoot =
                [&] {
                    if (injected)
                        return;
                    // A long doomed workload keeps the device loaded;
                    // the injection preempts it one second in, well
                    // before the physics' own brownout.
                    rig.device->runWorkload(
                        rig.device->mcu().activePower, 1000.0);
                    rig.sim.schedule(1.0, [&] {
                        if (injected)
                            return;
                        injected = true;
                        auto &ps = rig.device->powerSystem();
                        ps.advanceTo(rig.sim.now());
                        v_before = ps.storageVoltage();
                        hit = rig.device->injectPowerFailure(kind);
                        // Sampled at the failure instant: the bank
                        // recharges right after.
                        v_after = ps.storageVoltage();
                        drained = ps.stats().faultDrained;
                    });
                },
            .onPowerFail = [] {},
            .onWorkloadDone = nullptr,
        });
        rig.device->start();
        rig.sim.runUntil(8.0);

        ASSERT_TRUE(hit);
        if (kind == Device::FailureKind::Collapse) {
            EXPECT_LT(v_after, v_before);
            EXPECT_GT(drained, 0.0);
        } else {
            EXPECT_NEAR(v_after, v_before, 1e-9);
            EXPECT_DOUBLE_EQ(drained, 0.0);
        }
        EXPECT_EQ(rig.device->stats().injectedFailures, 1u);
        EXPECT_GE(rig.device->stats().powerFailures, 1u);
    }
}

TEST(InjectFailure, BackToBackBootFailuresAccountExactlyOnce)
{
    // Kill the device during the boot window, repeatedly: every
    // injected failure must count as exactly one power failure AND
    // one boot failure, and the eventual successful boot as one boot.
    FaultRig rig;
    int boots = 0;
    rig.device->setHooks(Device::Hooks{
        .onBoot = [&] { ++boots; },
        .onPowerFail = [] {},
        .onWorkloadDone = nullptr,
    });
    // The charge-complete event leaves the device mid-boot, so an
    // attempt after every executed event strikes the boot window.
    sim::FaultPlan plan = sim::FaultPlan::everyNth(1);
    plan.maxAttempts = 4;
    sim::FaultInjector inj(
        rig.sim, plan, [&] { return rig.device->injectPowerFailure(); });
    rig.device->start();
    rig.sim.runUntil(300.0);

    const auto &st = rig.device->stats();
    EXPECT_EQ(inj.fired(), 4u);
    EXPECT_EQ(st.injectedFailures, 4u);
    EXPECT_EQ(st.bootFailures, 4u)
        << "each injection struck the boot window";
    EXPECT_EQ(st.powerFailures, 4u)
        << "boot failures are power failures, counted once";
    EXPECT_EQ(st.boots, 1u);
    EXPECT_EQ(boots, 1);
    EXPECT_TRUE(rig.device->isOn());
}

TEST(InjectFailure, PreemptingPredictedBrownoutCountsOneAbort)
{
    // Physics pre-counts an abort when it schedules a brownout for a
    // workload it knows cannot finish; injecting first must not count
    // the same aborted workload twice.
    FaultRig rig;
    bool injected = false, hit = false;
    rig.device->setHooks(Device::Hooks{
        .onBoot =
            [&] {
                if (injected)
                    return;
                // 10 mW harvest vs 22 mW draw: a 1000 s workload is
                // doomed at schedule time, so the abort is counted
                // when the physics schedules the brownout.
                rig.device->runWorkload(
                    rig.device->mcu().activePower, 1000.0);
                rig.sim.schedule(1.0, [&] {
                    if (injected)
                        return;
                    injected = true;
                    hit = rig.device->injectPowerFailure();
                });
            },
        .onPowerFail = [] {},
        .onWorkloadDone = nullptr,
    });
    rig.device->start();
    rig.sim.runUntil(8.0);

    ASSERT_TRUE(hit) << "device must be mid-workload";
    EXPECT_EQ(rig.device->stats().workloadsAborted, 1u);
    EXPECT_EQ(rig.device->stats().injectedFailures, 1u);
}

// --- Crash audits over the application workloads -------------------

namespace
{

/** Poisson failure schedule spec used by the per-app property tests. */
FaultSpec
poissonSpec(std::uint64_t seed, double mean_interval, double horizon)
{
    FaultSpec spec;
    spec.plan =
        sim::FaultPlan::poisson(seed, mean_interval, horizon, 1.0);
    return spec;
}

} // namespace

TEST(CrashAudit, CsrSurvivesPoissonFailures)
{
    const double horizon = 120.0;
    FaultSpec spec = poissonSpec(11, 7.0, horizon);
    RunMetrics m = runCorrSense(core::Policy::CapyP, grcSchedule(1),
                                1, horizon, &spec);
    EXPECT_GT(m.faults.fired, 0u);
    EXPECT_GT(m.faults.outagesAudited, 0u);
    EXPECT_GT(m.faults.checksRun, 0u);
    EXPECT_TRUE(m.faults.clean()) << m.faults.violationText;
}

TEST(CrashAudit, GrcSurvivesEveryNthEventFailures)
{
    // GRC parks between sparse gesture events, so time-indexed
    // attempts mostly see an unpowered device; event-indexed
    // attempts strike exactly where the software is live.
    const double horizon = 120.0;
    FaultSpec spec;
    spec.plan = sim::FaultPlan::everyNth(37);
    RunMetrics m =
        runGestureRemote(GrcVariant::Compact, core::Policy::CapyP,
                         grcSchedule(2), 2, horizon, &spec);
    EXPECT_GT(m.faults.fired, 0u);
    EXPECT_GT(m.faults.outagesAudited, 0u);
    EXPECT_TRUE(m.faults.clean()) << m.faults.violationText;
}

TEST(CrashAudit, TaSurvivesEveryNthEventFailures)
{
    const double horizon = 120.0;
    FaultSpec spec;
    spec.plan = sim::FaultPlan::everyNth(23);
    RunMetrics m = runTempAlarm(core::Policy::CapyP, taSchedule(3), 3,
                                horizon, -1.0, &spec);
    EXPECT_GT(m.faults.fired, 0u);
    EXPECT_GT(m.faults.outagesAudited, 0u);
    EXPECT_TRUE(m.faults.clean()) << m.faults.violationText;
}

TEST(CrashAudit, CapySatSurvivesBusFaultsOnBothMcus)
{
    const double orbits = 0.05;
    FaultSpec spec;
    spec.plan = sim::FaultPlan::poisson(14, 60.0, 0.05 * 5550.0, 5.0);
    CapySatResult r = runCapySat(orbits, 1, &spec);
    EXPECT_GT(r.faults.fired, 0u);
    EXPECT_GT(r.faults.checksRun, 0u);
    EXPECT_TRUE(r.faults.clean()) << r.faults.violationText;
}

TEST(CrashAudit, LatchRetentionHoldsUnderDenseReconfigFailures)
{
    // CapyP reconfigures the switched banks between tasks; a dense
    // failure schedule lands outages inside and around those
    // reconfiguration windows, and the auditor independently
    // re-derives every latch's retention contract across each outage.
    const double horizon = 90.0;
    FaultSpec spec = poissonSpec(15, 3.0, horizon);
    RunMetrics m = runCorrSense(core::Policy::CapyP, grcSchedule(4),
                                4, horizon, &spec);
    EXPECT_GT(m.faults.outagesAudited, 3u);
    EXPECT_TRUE(m.faults.clean()) << m.faults.violationText;
}

TEST(CrashAudit, CheckpointWorkloadSurvivesFrequentFailures)
{
    FaultSpec spec;
    spec.plan = sim::FaultPlan::poisson(16, 5.0, 300.0, 1.0);
    CheckpointCrashMetrics m =
        runCheckpointCrashWorkload(&spec, 4.0, 300.0);
    EXPECT_GT(m.faults.fired, 0u);
    EXPECT_TRUE(m.faults.clean()) << m.faults.violationText;
    // Progress survives every outage: committed work only grows.
    EXPECT_GE(m.progress, 0.0);
    EXPECT_LE(m.progress, 4.0 + 1e-9);
}

TEST(CrashAudit, UninterruptedOracleIsCleanAndCompletes)
{
    FaultSpec spec;  // audit only, no injection
    CheckpointCrashMetrics m =
        runCheckpointCrashWorkload(&spec, 2.0, 600.0);
    EXPECT_TRUE(m.finished);
    EXPECT_NEAR(m.progress, 2.0, 1e-9);
    EXPECT_TRUE(m.faults.clean()) << m.faults.violationText;
    EXPECT_EQ(m.faults.fired, 0u);
    EXPECT_FALSE(m.faults.activeSpans.empty());
}

TEST(CrashAudit, AuditorCatchesBrokenRecoveryPath)
{
    // Tear a commit with everything but the CRC written, then break
    // the read path: the auditor must flag the divergence between
    // what the software recovers and what the protocol allows.
    FaultRig rig(parts::edlc7_5mF(), 3.0);
    NvMemory fram("fram");
    rt::CheckpointKernel::Spec kspec;
    kspec.checkpointTime = 25e-3;
    rt::CheckpointKernel kernel(*rig.device, kspec, 100.0, 0.0, [] {},
                                &fram);
    rt::CrashAuditor auditor(*rig.device);
    auditor.watchCheckpoint(kernel);
    fram.disableRecoveryForTest(true);

    // A 1 ms probe grid watches for the checkpoint phase and injects
    // only after ~20 consecutive sightings — i.e. ~20 ms into the
    // 25 ms window — so the tear lands past the sequence-number word
    // with only the CRC still unwritten (the one torn image a
    // CRC-skipping reader believes).
    kernel.start();
    bool caught = false;
    int sightings = 0;
    for (double t = 0.5; t < 60.0; t += 1e-3) {
        rig.sim.schedule(t, [&] {
            if (caught)
                return;
            if (kernel.phase() !=
                rt::CheckpointKernel::Phase::Checkpoint) {
                sightings = 0;
                return;
            }
            if (++sightings < 20)
                return;
            sightings = 0;
            rig.device->injectPowerFailure();
            caught = !auditor.clean();
        });
    }
    rig.sim.runUntil(130.0);

    ASSERT_TRUE(caught) << "no probe landed late in a checkpoint "
                           "write; torn checkpoints: "
                        << kernel.stats().tornCheckpoints;
    auditor.checkNow();
    EXPECT_FALSE(auditor.clean())
        << "broken recovery path escaped the auditor";
    bool integrity = false;
    for (const auto &v : auditor.violations())
        integrity |= v.rule == "ckpt-recovery-integrity";
    EXPECT_TRUE(integrity) << auditor.report();
}
