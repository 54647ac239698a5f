/**
 * @file
 * Unit tests for the simulation kernel: event queue ordering and
 * cancellation, simulator clock semantics, RNG distributions,
 * statistics accumulators, and traces.
 */

#include <gtest/gtest.h>

#include <cmath>
#include <deque>
#include <functional>
#include <map>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "sim/event.hh"
#include "sim/logging.hh"
#include "sim/random.hh"
#include "sim/simulator.hh"
#include "sim/stats.hh"
#include "sim/trace.hh"
#include "sim/work.hh"

using namespace capy;
using namespace capy::sim;

namespace
{

/** A component owning one event that logs its tag when it fires. */
struct Owner
{
    Owner(std::vector<int> *log_to, int tag_in)
        : log(log_to), tag(tag_in),
          ev([](void *o) { static_cast<Owner *>(o)->fired(); }, this)
    {}

    void fired() { log->push_back(tag); }

    std::vector<int> *log;
    int tag;
    Event ev;
};

} // namespace

TEST(EventQueue, RunsInTimeOrder)
{
    EventQueue q;
    std::vector<int> order;
    q.schedule(3.0, [&] { order.push_back(3); });
    q.schedule(1.0, [&] { order.push_back(1); });
    q.schedule(2.0, [&] { order.push_back(2); });
    // A capture too large for std::function's inline storage.
    struct Big
    {
        double pad[16];
    } big{};
    big.pad[0] = 4.0;
    q.schedule(4.0, [&order, big] { order.push_back(int(big.pad[0])); });
    while (!q.empty())
        q.runNext();
    EXPECT_EQ(order, (std::vector<int>{1, 2, 3, 4}));
}

TEST(EventQueue, SimultaneousEventsRunFifo)
{
    EventQueue q;
    std::vector<int> order;
    for (int i = 0; i < 10; ++i)
        q.schedule(5.0, [&order, i] { order.push_back(i); });
    while (!q.empty())
        q.runNext();
    for (int i = 0; i < 10; ++i)
        EXPECT_EQ(order[size_t(i)], i);
}

TEST(EventQueue, CancelPreventsExecution)
{
    EventQueue q;
    std::vector<int> log;
    Owner a(&log, 1);
    q.schedule(1.0, a.ev);
    EXPECT_TRUE(q.cancel(a.ev));
    EXPECT_TRUE(q.empty());
    EXPECT_TRUE(log.empty());
}

TEST(EventQueue, CancelExecutedEventReturnsFalse)
{
    EventQueue q;
    std::vector<int> log;
    Owner a(&log, 1);
    q.schedule(1.0, a.ev);
    q.runNext();
    EXPECT_FALSE(q.cancel(a.ev));
}

TEST(EventQueue, DoubleCancelReturnsFalse)
{
    EventQueue q;
    std::vector<int> log;
    Owner a(&log, 1);
    q.schedule(1.0, a.ev);
    EXPECT_TRUE(q.cancel(a.ev));
    EXPECT_FALSE(q.cancel(a.ev));
}

TEST(EventQueue, CancelDoesNotDisturbOtherEvents)
{
    EventQueue q;
    std::vector<int> order;
    Owner two(&order, 2);
    q.schedule(1.0, [&] { order.push_back(1); });
    q.schedule(2.0, two.ev);
    q.schedule(3.0, [&] { order.push_back(3); });
    q.cancel(two.ev);
    while (!q.empty())
        q.runNext();
    EXPECT_EQ(order, (std::vector<int>{1, 3}));
}

TEST(EventQueue, PendingCountTracksLifecycle)
{
    EventQueue q;
    std::vector<int> log;
    Owner a(&log, 1);
    q.schedule(1.0, a.ev);
    q.schedule(2.0, [] {});
    EXPECT_EQ(q.pending(), 2u);
    q.cancel(a.ev);
    EXPECT_EQ(q.pending(), 1u);
    q.runNext();
    EXPECT_EQ(q.pending(), 0u);
    EXPECT_EQ(q.executed(), 1u);
}

TEST(EventQueue, HeavyCancelTrafficRetainsNoTombstones)
{
    // A long-lived simulator that schedules and cancels a timeout
    // over and over (the device-model retimer pattern) must keep its
    // bookkeeping exact: zero pending, no stale record left runnable.
    EventQueue q;
    std::vector<int> log;
    Owner timeout(&log, 1);
    for (int i = 0; i < 10000; ++i) {
        q.schedule(double(i), timeout.ev);
        EXPECT_TRUE(q.cancel(timeout.ev));
        EXPECT_EQ(q.pending(), 0u);
        EXPECT_TRUE(q.empty());
    }
    EXPECT_EQ(q.executed(), 0u);
    // The queue still works normally afterwards.
    bool ran = false;
    q.schedule(1.0, [&] { ran = true; });
    EXPECT_EQ(q.pending(), 1u);
    q.runNext();
    EXPECT_TRUE(ran);
    EXPECT_TRUE(log.empty());
}

TEST(EventQueue, PendingBookkeepingStaysExactUnderInterleaving)
{
    EventQueue q;
    std::vector<int> log;
    std::deque<Owner> live;
    std::size_t expected = 0;
    for (int round = 0; round < 50; ++round) {
        for (int i = 0; i < 10; ++i) {
            q.schedule(double(round * 10 + i),
                       live.emplace_back(&log, round * 10 + i).ev);
            ++expected;
        }
        // Cancel every other event from this round.
        for (int i = 0; i < 10; i += 2) {
            EXPECT_TRUE(q.cancel(live[live.size() - 10 + size_t(i)].ev));
            --expected;
        }
        // Run two events.
        for (int i = 0; i < 2 && !q.empty(); ++i) {
            q.runNext();
            --expected;
        }
        EXPECT_EQ(q.pending(), expected);
    }
    while (!q.empty())
        q.runNext();
    EXPECT_EQ(q.pending(), 0u);
    EXPECT_EQ(log.size(), 250u);
}

TEST(EventQueue, SequentialChainReusesOneSlot)
{
    EventQueue q;
    int count = 0;
    std::function<void()> chain = [&] {
        if (++count < 200)
            q.schedule(double(count), chain);
    };
    q.schedule(0.0, chain);
    while (!q.empty())
        q.runNext();
    EXPECT_EQ(count, 200);
    // Each event's slot retires before the next is scheduled.
    EXPECT_LE(q.slotCapacity(), 2u);
}

TEST(EventQueue, CancelFromCallbackOfSimultaneousEvent)
{
    EventQueue q;
    std::vector<int> log;
    Owner second(&log, 2);
    q.schedule(1.0, [&] { EXPECT_TRUE(q.cancel(second.ev)); });
    q.schedule(1.0, second.ev);
    while (!q.empty())
        q.runNext();
    EXPECT_TRUE(log.empty());
    EXPECT_EQ(q.executed(), 1u);
    EXPECT_EQ(q.pending(), 0u);
}

TEST(EventQueue, ExecutedExcludesCancelledEvents)
{
    EventQueue q;
    std::vector<int> log;
    Owner a(&log, 1), c(&log, 3);
    q.schedule(1.0, a.ev);
    q.schedule(2.0, [] {});
    q.schedule(3.0, c.ev);
    q.cancel(a.ev);
    q.cancel(c.ev);
    while (!q.empty())
        q.runNext();
    EXPECT_EQ(q.executed(), 1u);
}

TEST(EventQueue, CallbackMaySchedule)
{
    EventQueue q;
    int depth = 0;
    std::function<void()> chain = [&] {
        if (++depth < 5)
            q.schedule(double(depth), chain);
    };
    q.schedule(0.0, chain);
    while (!q.empty())
        q.runNext();
    EXPECT_EQ(depth, 5);
}

TEST(OwnedEvent, SharesSchedulingOrderWithCallbacksAtOneInstant)
{
    EventQueue q;
    std::vector<int> order;
    Owner a(&order, 1), b(&order, 3);
    q.schedule(5.0, a.ev);
    q.schedule(5.0, [&] { order.push_back(2); });
    q.schedule(5.0, b.ev);
    q.schedule(5.0, [&] { order.push_back(4); });
    q.schedule(4.0, [&] { order.push_back(0); });
    while (!q.empty())
        q.runNext();
    EXPECT_EQ(order, (std::vector<int>{0, 1, 2, 3, 4}));
    EXPECT_EQ(q.executed(), 5u);
}

TEST(OwnedEvent, CancelAndRescheduleWithinOneInstant)
{
    Simulator s;
    std::vector<int> order;
    Owner a(&order, 1);
    s.schedule(1.0, a.ev);
    s.schedule(1.0, [&] { order.push_back(2); });
    // The retimed occurrence runs once, at its new place in the order;
    // the cancelled record is skipped.
    EXPECT_TRUE(s.cancel(a.ev));
    EXPECT_FALSE(s.cancel(a.ev));
    s.schedule(1.0, a.ev);
    s.run();
    EXPECT_EQ(order, (std::vector<int>{2, 1}));
    EXPECT_EQ(s.eventsExecuted(), 2u);
    EXPECT_FALSE(a.ev.scheduled());
}

TEST(OwnedEvent, HandlerMayRescheduleItsOwnEvent)
{
    Simulator s;
    int fired = 0;
    struct Ticker
    {
        Simulator *sim;
        int *count;
        Event ev{[](void *t) { static_cast<Ticker *>(t)->tick(); }, this};

        void
        tick()
        {
            EXPECT_FALSE(ev.scheduled());
            if (++*count < 10)
                sim->schedule(0.5, ev);
        }
    } t{&s, &fired};
    s.schedule(0.0, t.ev);
    s.run();
    EXPECT_EQ(fired, 10);
    EXPECT_DOUBLE_EQ(s.now(), 4.5);
}

TEST(OwnedEvent, ScheduledPendingAndIsPendingAgree)
{
    Simulator s;
    std::vector<int> log;
    Owner a(&log, 1);
    EXPECT_FALSE(a.ev.scheduled());
    s.schedule(1.0, a.ev);
    s.schedule(2.0, [] {});
    EXPECT_TRUE(a.ev.scheduled());
    EXPECT_EQ(s.pendingEvents(), 2u);

    s.cancel(a.ev);
    EXPECT_FALSE(a.ev.scheduled());
    EXPECT_EQ(s.pendingEvents(), 1u);
    s.schedule(3.0, a.ev);
    EXPECT_EQ(s.pendingEvents(), 2u);

    s.runUntil(2.0);
    EXPECT_TRUE(a.ev.scheduled());
    EXPECT_EQ(s.pendingEvents(), 1u);
    s.run();
    EXPECT_FALSE(a.ev.scheduled());
    EXPECT_EQ(s.pendingEvents(), 0u);
    EXPECT_EQ(log, (std::vector<int>{1}));
}

TEST(OwnedEventDeathTest, SchedulingAPendingEventAsserts)
{
    EXPECT_DEATH(
        {
            Simulator s;
            std::vector<int> log;
            Owner a(&log, 1);
            s.schedule(1.0, a.ev);
            s.schedule(2.0, a.ev);
        },
        "already pending");
}

TEST(OwnedEvent, OwnerDestroyedWithRecordsLeavesQueueClean)
{
    // Under ASan (ctest -L san) any later read of a destroyed owner's
    // record is a heap-use-after-free.
    Simulator s;
    std::vector<int> log;
    auto cancelled = std::make_unique<Owner>(&log, 1);
    auto pending = std::make_unique<Owner>(&log, 2);
    s.schedule(1.0, cancelled->ev);
    s.cancel(cancelled->ev);          // a stale record stays queued
    s.schedule(2.0, cancelled->ev);   // ...next to a live one
    s.schedule(1.5, pending->ev);
    Owner survivor(&log, 3);
    s.schedule(3.0, survivor.ev);
    EXPECT_EQ(s.pendingEvents(), 3u);

    cancelled.reset();
    pending.reset();
    EXPECT_EQ(s.pendingEvents(), 1u);
    s.run();
    EXPECT_EQ(log, (std::vector<int>{3}));
    EXPECT_EQ(s.eventsExecuted(), 1u);
}

TEST(OwnedEvent, EventMayOutliveItsQueue)
{
    std::vector<int> log;
    Owner a(&log, 1);
    {
        Simulator s;
        s.schedule(1.0, a.ev);
        s.cancel(a.ev);
        s.schedule(2.0, a.ev);
    }
    EXPECT_FALSE(a.ev.scheduled());
    Simulator next;
    next.schedule(1.0, a.ev);
    next.run();
    EXPECT_EQ(log, (std::vector<int>{1}));
}

namespace
{

/**
 * Drives an EventQueue and a reference model side by side. The
 * reference is a std::map ordered by (when, seq), so it pops events
 * in exactly the order the queue's contract promises. Events are of
 * both kinds: owned Events, which the harness cancels at random, and
 * callback events, which capture a shared_ptr token; the harness
 * keeps only a weak_ptr, so it can see when the queue releases a
 * callback's captures.
 */
struct QueueDifferential
{
    using Key = std::pair<Time, std::uint64_t>;

    /** An owned event that fires the harness with its tag. */
    struct Owned
    {
        Owned(QueueDifferential *harness, int tag_in)
            : d(harness), tag(tag_in),
              ev([](void *o) {
                     auto *self = static_cast<Owned *>(o);
                     self->d->fire(self->tag, self->tag);
                 },
                 this)
        {}

        QueueDifferential *d;
        int tag;
        Event ev;
    };

    struct Ev
    {
        std::unique_ptr<Owned> owned;  ///< null for a callback event
        Key key{};
        std::weak_ptr<int> token;      ///< a callback event's capture
        bool done = false;  ///< ran or cancelled
    };

    EventQueue q;
    std::map<Key, int> ref;  ///< pending events -> tag
    std::vector<Ev> evs;     ///< by tag
    std::vector<int> owned;  ///< tags of the owned events
    std::vector<int> ran;    ///< tags in execution order
    std::uint64_t seq = 0;
    Time now = 0.0;
    Rng rng;
    /** Coverage: dispatches that grew the slot table or reused the
     *  dispatched callback's slot, and successful cancels. */
    int grownInDispatch = 0;
    int reusedInDispatch = 0;
    int cancels = 0;

    explicit QueueDifferential(std::uint64_t seed) : rng(seed, 0x51) {}

    /** Children an event schedules from inside its own dispatch. */
    int
    childrenFor(int tag)
    {
        if (tag % 7 == 3)
            return 0;
        std::uint64_t r = rng.uniformInt(0, 19);
        if (r == 0 && q.slotCapacity() < 256) {
            // A burst of callbacks that needs more new slots than the
            // table holds, so it reallocates mid-dispatch whatever its
            // spare capacity.
            return 2 * int(q.slotCapacity()) + 1;
        }
        return r < 6 ? 1 : 0;
    }

    /** Schedule an owned event at @p when, or a callback event. */
    int
    schedule(Time when, bool callback)
    {
        int tag = int(evs.size());
        Ev &ev = evs.emplace_back();
        ev.key = Key{when, seq++};
        if (callback) {
            auto token = std::make_shared<int>(tag);
            ev.token = token;
            q.schedule(when, [this, tag, token] { fire(tag, *token); });
        } else {
            ev.owned = std::make_unique<Owned>(this, tag);
            q.schedule(when, ev.owned->ev);
            owned.push_back(tag);
        }
        ref.emplace(ev.key, tag);
        return tag;
    }

    void
    fire(int tag, int token_value)
    {
        ASSERT_EQ(token_value, tag) << "captures intact at dispatch";
        ran.push_back(tag);
        std::size_t capacity = q.slotCapacity();
        int kids = childrenFor(tag);
        bool burst = kids > 1;
        for (int k = 0; k < kids; ++k) {
            bool callback = burst || rng.uniformInt(0, 2) == 0;
            // Integer delays make simultaneous events common.
            schedule(now + double(rng.uniformInt(0, 3)), callback);
            if (k == 0 && callback && !evs[tag].owned) {
                // The dispatched callback's slot was freed before it
                // ran, so the first callback child reuses it.
                EXPECT_EQ(q.slotCapacity(), capacity);
                ++reusedInDispatch;
            }
        }
        grownInDispatch += q.slotCapacity() > capacity;
        if (!evs[tag].owned) {
            // The moved-out callback survives any slot-table growth.
            EXPECT_EQ(evs[tag].token.use_count(), 1);
        }
    }

    /** Cancel a random owned event; a callback event cannot be
     *  cancelled. */
    void
    cancelSome()
    {
        if (owned.empty())
            return;
        Ev &ev = evs[owned[rng.uniformInt(0, owned.size() - 1)]];
        EXPECT_EQ(q.cancel(ev.owned->ev), !ev.done);
        EXPECT_FALSE(ev.owned->ev.scheduled());
        if (!ev.done) {
            ev.done = true;
            ref.erase(ev.key);
            ++cancels;
        }
    }

    void
    runOne()
    {
        ASSERT_FALSE(ref.empty());
        auto head = ref.begin();
        int want = head->second;
        Time want_when = head->first.first;
        ref.erase(head);
        evs[want].done = true;
        now = want_when;
        std::size_t before = ran.size();
        Time when = -1.0;
        EXPECT_FALSE(q.popDue(want_when - 0.5, when)) << "not yet due";
        if (want % 2 == 0) {
            EXPECT_EQ(q.runNext(), want_when);
        } else {
            // The limit is inclusive, as in Simulator::runUntil.
            Event *ev = q.popDue(want_when, when);
            ASSERT_NE(ev, nullptr);
            EXPECT_EQ(when, want_when);
            ev->fire();
        }
        ASSERT_EQ(ran.size(), before + 1);
        EXPECT_EQ(ran[before], want);
        EXPECT_TRUE(evs[want].token.expired())
            << "captures released after run";
    }
};

} // namespace

TEST(EventQueue, MatchesOrderedReferenceUnderRandomTraffic)
{
    for (std::uint64_t seed = 1; seed <= 8; ++seed) {
        SCOPED_TRACE("seed " + std::to_string(seed));
        QueueDifferential d(seed);
        for (int op = 0; op < 3000 && !HasFatalFailure(); ++op) {
            std::uint64_t r = d.rng.uniformInt(0, 9);
            if (r < 4 || d.ref.empty()) {
                Time when = d.now + double(d.rng.uniformInt(0, 5));
                d.schedule(when, d.rng.uniformInt(0, 2) == 0);
            } else if (r < 6)
                d.cancelSome();
            else
                d.runOne();
            ASSERT_EQ(d.q.pending(), d.ref.size());
            ASSERT_EQ(d.q.empty(), d.ref.empty());
            if (!d.ref.empty()) {
                ASSERT_EQ(d.q.nextTime(), d.ref.begin()->first.first);
            }
        }
        while (!d.ref.empty() && !HasFatalFailure())
            d.runOne();
        EXPECT_TRUE(d.q.empty());
        EXPECT_EQ(d.q.executed(), d.ran.size());
        for (const auto &ev : d.evs)
            EXPECT_TRUE(ev.token.expired());
        EXPECT_GT(d.grownInDispatch, 0);
        EXPECT_GT(d.reusedInDispatch, 0);
        EXPECT_GT(d.cancels, 100);
    }
}

TEST(Simulator, ClockAdvancesWithEvents)
{
    Simulator s;
    double seen = -1.0;
    s.schedule(2.5, [&] { seen = s.now(); });
    s.run();
    EXPECT_DOUBLE_EQ(seen, 2.5);
    EXPECT_DOUBLE_EQ(s.now(), 2.5);
}

TEST(Simulator, RunUntilAdvancesClockToLimit)
{
    Simulator s;
    int count = 0;
    s.schedule(1.0, [&] { ++count; });
    s.schedule(5.0, [&] { ++count; });
    s.runUntil(3.0);
    EXPECT_EQ(count, 1);
    EXPECT_DOUBLE_EQ(s.now(), 3.0);
    s.run();
    EXPECT_EQ(count, 2);
}

TEST(Simulator, RunUntilIncludesBoundaryEvents)
{
    Simulator s;
    bool ran = false;
    s.schedule(3.0, [&] { ran = true; });
    s.runUntil(3.0);
    EXPECT_TRUE(ran);
}

TEST(Simulator, StopHaltsProcessing)
{
    Simulator s;
    int count = 0;
    s.schedule(1.0, [&] {
        ++count;
        s.stop();
    });
    s.schedule(2.0, [&] { ++count; });
    s.run();
    EXPECT_EQ(count, 1);
    s.run();
    EXPECT_EQ(count, 2);
}

TEST(Simulator, NestedSchedulingUsesCurrentTime)
{
    Simulator s;
    double inner_time = -1.0;
    s.schedule(1.0, [&] {
        s.schedule(2.0, [&] { inner_time = s.now(); });
    });
    s.run();
    EXPECT_DOUBLE_EQ(inner_time, 3.0);
}

namespace
{

/**
 * A self-continuing chain of owned events @p step seconds apart that
 * runs each next one in place when the simulator allows and schedules
 * it otherwise: the device's completion loop, without the device.
 */
struct InPlaceChain
{
    Simulator &sim;
    std::vector<std::string> *log;
    int left;
    Time step = 1.0;
    Event ev{[](void *c) { static_cast<InPlaceChain *>(c)->fire(); },
             this};

    void
    fire()
    {
        for (;;) {
            log->push_back("chain@" + std::to_string(sim.now()));
            if (--left == 0)
                return;
            Time next = sim.now() + step;
            sim.closeEvent();
            if (!sim.claimInPlace(next)) {
                sim.scheduleAt(next, ev);
                return;
            }
        }
    }
};

std::string
at(const char *who, double t)
{
    return std::string(who) + "@" + std::to_string(t);
}

} // namespace

TEST(InPlace, ChainCountsEveryEventAndRunsTheHookOnce)
{
    Simulator s;
    std::vector<std::string> log;
    InPlaceChain chain{s, &log, 10};
    std::uint64_t hooks = 0;
    std::vector<std::uint64_t> seen;
    s.setPostEventHook([&] {
        ++hooks;
        seen.push_back(s.eventsExecuted());
    });
    const std::uint64_t in_place = workCounts.inPlace;
    s.schedule(0.0, chain.ev);
    s.run();
    EXPECT_EQ(log.size(), 10u);
    EXPECT_DOUBLE_EQ(s.now(), 9.0);
    EXPECT_EQ(s.eventsExecuted(), 10u);
    EXPECT_EQ(hooks, 10u);
    // The hook sees each event counted, in place or queued.
    for (std::size_t i = 0; i < seen.size(); ++i)
        EXPECT_EQ(seen[i], i + 1);
    EXPECT_EQ(workCounts.inPlace - in_place, 9u);
}

TEST(InPlace, ChainStopsAtTheRunLimit)
{
    Simulator s;
    std::vector<std::string> log;
    InPlaceChain chain{s, &log, 10};
    s.schedule(0.0, chain.ev);
    s.runUntil(4.5);
    EXPECT_EQ(log.size(), 5u);
    EXPECT_DOUBLE_EQ(s.now(), 4.5);
    EXPECT_EQ(s.pendingEvents(), 1u);
    EXPECT_TRUE(chain.ev.scheduled());
    // An event exactly at the limit is within it.
    s.runUntil(6.0);
    EXPECT_EQ(log.size(), 7u);
    EXPECT_EQ(log.back(), at("chain", 6.0));
    s.run();
    EXPECT_EQ(log.size(), 10u);
    EXPECT_EQ(s.eventsExecuted(), 10u);
}

TEST(InPlace, QueuedEventRunsFirstOnATieAndWhenEarlier)
{
    Simulator s;
    std::vector<std::string> log;
    InPlaceChain chain{s, &log, 6};
    s.schedule(0.0, chain.ev);
    s.scheduleAt(2.5, [&] { log.push_back(at("early", s.now())); });
    s.scheduleAt(4.0, [&] { log.push_back(at("tie", s.now())); });
    s.run();
    EXPECT_EQ(log, (std::vector<std::string>{
                       at("chain", 0), at("chain", 1), at("chain", 2),
                       at("early", 2.5), at("chain", 3), at("tie", 4),
                       at("chain", 4), at("chain", 5)}));
    EXPECT_EQ(s.eventsExecuted(), 8u);
}

TEST(InPlace, StopFromTheHookEndsTheChainAfterTheCurrentEvent)
{
    Simulator s;
    std::vector<std::string> log;
    InPlaceChain chain{s, &log, 10};
    s.setPostEventHook([&] {
        if (s.eventsExecuted() == 4)
            s.stop();
    });
    s.schedule(0.0, chain.ev);
    s.run();
    EXPECT_EQ(log.size(), 4u);
    EXPECT_DOUBLE_EQ(s.now(), 3.0);
    EXPECT_TRUE(chain.ev.scheduled());
    s.run();
    EXPECT_EQ(log.size(), 10u);
    EXPECT_EQ(s.eventsExecuted(), 10u);
}

TEST(InPlace, StopFromTheHandlerRefusesTheClaim)
{
    Simulator s;
    bool claimed = true;
    s.schedule(1.0, [&] {
        s.stop();
        s.closeEvent();
        claimed = s.claimInPlace(2.0);
    });
    s.run();
    EXPECT_FALSE(claimed);
    EXPECT_EQ(s.eventsExecuted(), 1u);
    EXPECT_DOUBLE_EQ(s.now(), 1.0);
}

TEST(Rng, DeterministicForSeed)
{
    Rng a(42), b(42);
    for (int i = 0; i < 100; ++i)
        EXPECT_EQ(a.next32(), b.next32());
}

TEST(Rng, DifferentSeedsDiffer)
{
    Rng a(1), b(2);
    int same = 0;
    for (int i = 0; i < 100; ++i)
        same += a.next32() == b.next32();
    EXPECT_LT(same, 5);
}

TEST(Rng, UniformInUnitInterval)
{
    Rng r(7);
    for (int i = 0; i < 10000; ++i) {
        double u = r.uniform();
        EXPECT_GE(u, 0.0);
        EXPECT_LT(u, 1.0);
    }
}

TEST(Rng, UniformMeanNearHalf)
{
    Rng r(11);
    SummaryStats s;
    for (int i = 0; i < 100000; ++i)
        s.add(r.uniform());
    EXPECT_NEAR(s.mean(), 0.5, 0.01);
}

TEST(Rng, ExponentialMeanMatches)
{
    Rng r(13);
    SummaryStats s;
    for (int i = 0; i < 100000; ++i)
        s.add(r.exponential(30.0));
    EXPECT_NEAR(s.mean(), 30.0, 1.0);
    EXPECT_GT(s.min(), 0.0);
}

TEST(Rng, NormalMomentsMatch)
{
    Rng r(17);
    SummaryStats s;
    for (int i = 0; i < 100000; ++i)
        s.add(r.normal(5.0, 2.0));
    EXPECT_NEAR(s.mean(), 5.0, 0.05);
    EXPECT_NEAR(s.stddev(), 2.0, 0.05);
}

TEST(Rng, UniformIntCoversRangeInclusive)
{
    Rng r(19);
    bool saw_lo = false, saw_hi = false;
    for (int i = 0; i < 1000; ++i) {
        auto v = r.uniformInt(3, 7);
        EXPECT_GE(v, 3u);
        EXPECT_LE(v, 7u);
        saw_lo |= v == 3;
        saw_hi |= v == 7;
    }
    EXPECT_TRUE(saw_lo);
    EXPECT_TRUE(saw_hi);
}

TEST(Rng, ChanceExtremes)
{
    Rng r(23);
    for (int i = 0; i < 100; ++i) {
        EXPECT_FALSE(r.chance(0.0));
        EXPECT_TRUE(r.chance(1.0));
    }
}

TEST(Rng, PoissonArrivalsSortedWithinHorizon)
{
    Rng r(29);
    auto arr = poissonArrivals(r, 10.0, 1000.0);
    ASSERT_FALSE(arr.empty());
    for (size_t i = 1; i < arr.size(); ++i)
        EXPECT_GT(arr[i], arr[i - 1]);
    EXPECT_LT(arr.back(), 1000.0);
    // Expect roughly horizon/mean events.
    EXPECT_NEAR(double(arr.size()), 100.0, 40.0);
}

TEST(Rng, PoissonArrivalsRespectStartAfter)
{
    Rng r(31);
    auto arr = poissonArrivals(r, 5.0, 500.0, 100.0);
    ASSERT_FALSE(arr.empty());
    EXPECT_GT(arr.front(), 100.0);
}

TEST(SummaryStats, BasicMoments)
{
    SummaryStats s;
    for (double v : {2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0})
        s.add(v);
    EXPECT_EQ(s.count(), 8u);
    EXPECT_DOUBLE_EQ(s.mean(), 5.0);
    EXPECT_DOUBLE_EQ(s.variance(), 4.0);
    EXPECT_DOUBLE_EQ(s.stddev(), 2.0);
    EXPECT_DOUBLE_EQ(s.min(), 2.0);
    EXPECT_DOUBLE_EQ(s.max(), 9.0);
    EXPECT_DOUBLE_EQ(s.sum(), 40.0);
}

TEST(SummaryStats, MergeEqualsCombined)
{
    SummaryStats a, b, all;
    Rng r(37);
    for (int i = 0; i < 1000; ++i) {
        double v = r.normal(0, 1);
        (i % 2 ? a : b).add(v);
        all.add(v);
    }
    a.merge(b);
    EXPECT_EQ(a.count(), all.count());
    EXPECT_NEAR(a.mean(), all.mean(), 1e-12);
    EXPECT_NEAR(a.variance(), all.variance(), 1e-9);
    EXPECT_DOUBLE_EQ(a.min(), all.min());
    EXPECT_DOUBLE_EQ(a.max(), all.max());
}

TEST(SummaryStats, EmptyIsZero)
{
    SummaryStats s;
    EXPECT_EQ(s.count(), 0u);
    EXPECT_DOUBLE_EQ(s.mean(), 0.0);
    EXPECT_DOUBLE_EQ(s.variance(), 0.0);
}

TEST(Histogram, BinsAndBounds)
{
    Histogram h(0.0, 10.0, 10);
    h.add(-1.0);
    h.add(0.0);
    h.add(0.5);
    h.add(9.99);
    h.add(10.0);
    h.add(25.0);
    EXPECT_EQ(h.underflow(), 1u);
    EXPECT_EQ(h.overflow(), 2u);
    EXPECT_EQ(h.binCount(0), 2u);
    EXPECT_EQ(h.binCount(9), 1u);
    EXPECT_DOUBLE_EQ(h.binLo(3), 3.0);
    EXPECT_DOUBLE_EQ(h.binHi(3), 4.0);
}

TEST(Table, AlignedOutputContainsCells)
{
    Table t({"name", "value"});
    t.addRow({"alpha", "1"});
    t.addRow({"b", "22222"});
    std::string s = t.str();
    EXPECT_NE(s.find("alpha"), std::string::npos);
    EXPECT_NE(s.find("22222"), std::string::npos);
    EXPECT_NE(s.find("----"), std::string::npos);
}

TEST(Cells, Formatting)
{
    EXPECT_EQ(cell(std::uint64_t{42}), "42");
    EXPECT_EQ(cell(-3), "-3");
    EXPECT_EQ(percentCell(0.756), "75.6%");
    EXPECT_EQ(cell(1.5), "1.5");
}

TEST(TimeSeries, RecordAndInterpolate)
{
    TimeSeries ts("v");
    ts.record(0.0, 1.0);
    ts.record(10.0, 3.0);
    EXPECT_DOUBLE_EQ(ts.at(5.0), 2.0);
    EXPECT_DOUBLE_EQ(ts.at(-1.0), 1.0);
    EXPECT_DOUBLE_EQ(ts.at(20.0), 3.0);
}

TEST(TimeSeries, CsvHasHeaderAndRows)
{
    TimeSeries ts("volts");
    ts.record(1.0, 2.0);
    std::string csv = ts.csv();
    EXPECT_NE(csv.find("time,volts"), std::string::npos);
    EXPECT_NE(csv.find("1,2"), std::string::npos);
}

TEST(SpanTrace, AccumulatesByLabel)
{
    SpanTrace st;
    st.open(0.0, "charge");
    st.close(5.0);
    st.open(5.0, "run");
    st.close(7.0);
    st.open(7.0, "charge");
    st.close(10.0);
    EXPECT_DOUBLE_EQ(st.totalFor("charge"), 8.0);
    EXPECT_DOUBLE_EQ(st.totalFor("run"), 2.0);
    EXPECT_EQ(st.countFor("charge"), 2u);
    EXPECT_FALSE(st.isOpen());
}

TEST(SpanTrace, OpenLabelVisible)
{
    SpanTrace st;
    st.open(1.0, "busy");
    EXPECT_TRUE(st.isOpen());
    EXPECT_EQ(st.openLabel(), "busy");
    st.close(2.0);
}

TEST(Logging, StrfmtFormats)
{
    EXPECT_EQ(strfmt("%d-%s", 7, "x"), "7-x");
    EXPECT_EQ(strfmt("%.2f", 1.234), "1.23");
}

TEST(Logging, WarnCountIncrements)
{
    setQuiet(true);
    unsigned long before = warnCount();
    capy_warn("test warning %d", 1);
    EXPECT_EQ(warnCount(), before + 1);
    setQuiet(false);
}
