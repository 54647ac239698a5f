/**
 * @file
 * Discrete-event queue: time-ordered events with stable FIFO ordering
 * among simultaneous events and O(1) cancellation of owned events.
 *
 * An event is an Event object owned by the component it wakes: a
 * handler function pointer and a context. The queue's heap orders
 * plain {when, seq, event} records, so scheduling builds, moves and
 * destroys no callable; a record whose seq is not its event's
 * current one is stale (the event ran, was cancelled or was
 * rescheduled) and gets skipped lazily at the head of the heap. A
 * record never outlives its event: ~Event purges the event's records,
 * a heap scan paid at teardown only.
 *
 * An event is cancelled only through the Event that holds it. Callback
 * events (schedule(Time, std::function)) are fire-and-forget: pooled
 * Events in the same queue, one per slot of a slot table that holds
 * the callback. A slot recycles through a free list when its callback
 * runs, and no handle names it, so nothing can cancel it.
 */

#ifndef CAPY_SIM_EVENT_HH
#define CAPY_SIM_EVENT_HH

#include <cstdint>
#include <functional>
#include <limits>
#include <memory>
#include <vector>

namespace capy::sim
{

/** Simulated time in seconds. */
using Time = double;

/** A time no event comes after (popDue's limit for "any event"). */
inline constexpr Time kForever = std::numeric_limits<Time>::infinity();

class EventQueue;

/**
 * An event owned by its component: handler(ctx) runs when it fires.
 * At most one occurrence is pending at a time; it may be rescheduled
 * once it has run or been cancelled, including from its own handler.
 * Not copyable or movable: the queue's records point at it.
 */
class Event
{
  public:
    using Handler = void (*)(void *ctx);

    Event(Handler fn, void *context) noexcept
        : handler(fn), ctx(context)
    {}

    /** Cancels the event and purges its records from the queue. */
    ~Event();

    Event(const Event &) = delete;
    Event &operator=(const Event &) = delete;

    /** Whether an occurrence is pending (scheduled, not yet run or
     *  cancelled). */
    bool scheduled() const { return liveSeq != kIdle; }

    /** Run the handler; the queue's runners call this on the event
     *  popDue() returned. */
    void fire() { handler(ctx); }

  private:
    friend class EventQueue;

    static constexpr std::uint64_t kIdle =
        std::numeric_limits<std::uint64_t>::max();

    Handler handler;
    void *ctx;
    /** The queue holding this event's records (valid while
     *  records > 0). */
    EventQueue *queue = nullptr;
    /** seq of the pending occurrence's record, or kIdle. */
    std::uint64_t liveSeq = kIdle;
    /** Heap records pointing here, live or stale. */
    std::uint32_t records = 0;
};

/**
 * Min-heap of timestamped events. Events scheduled for the same
 * instant run in scheduling order, owned and callback events alike.
 * Cancelled events are skipped lazily when they reach the head of the
 * heap.
 */
class EventQueue
{
  public:
    EventQueue() = default;
    /** Detaches the events still holding records. */
    ~EventQueue();

    EventQueue(const EventQueue &) = delete;
    EventQueue &operator=(const EventQueue &) = delete;

    /**
     * Schedule @p ev to fire at absolute time @p when.
     * @pre !ev.scheduled().
     */
    void schedule(Time when, Event &ev);

    /** Schedule @p fn to run at absolute time @p when, as a pooled
     *  event that cannot be cancelled. */
    void schedule(Time when, std::function<void()> fn);

    /**
     * Cancel @p ev's pending occurrence.
     * @retval true if it was pending and is now cancelled.
     */
    bool cancel(Event &ev);

    /** @return true when no runnable events remain. */
    bool empty() const;

    /** Time of the earliest pending event; empty() must be false. */
    Time nextTime() const;

    /**
     * Whether an event at @p when would run before every pending
     * event: the queue is empty or @p when is strictly earlier than
     * its head. A tie goes to the pending event, which was scheduled
     * first.
     */
    bool runsFirst(Time when) const;

    /**
     * Pop the earliest pending event and fire it.
     * @return the time at which the event ran.
     */
    Time runNext();

    /**
     * Pop the earliest pending event if it is due at or before
     * @p until: store its time in @p when and return it, counted as
     * executed and no longer scheduled, for the caller to fire().
     * Firing a callback event frees its slot before the callback
     * runs, so running it may schedule into that slot or grow the
     * slot table.
     * @return nullptr when no event is due.
     */
    Event *popDue(Time until, Time &when);

    /** Number of events executed so far. */
    std::uint64_t executed() const { return numExecuted; }

    /** Number of events currently pending (excludes cancelled). */
    std::size_t pending() const { return pendingCount; }

    /** Slots allocated over the queue's lifetime (bookkeeping bound:
     *  never exceeds the peak number of simultaneously pending
     *  callback events). */
    std::size_t slotCapacity() const { return slots.size(); }

  private:
    friend class Event;

    /** Heap entry: plain data, ordered by (when, seq). */
    struct Record
    {
        Time when;
        std::uint64_t seq;
        Event *ev;
    };

    /** A callback event: the pooled Event that runs fn. */
    struct Slot
    {
        explicit Slot(EventQueue *q) : ev(&Slot::run, this), queue(q) {}

        /** Move the callback out, free the slot, then run it. */
        static void run(void *slot);

        Event ev;
        std::function<void()> fn;
        EventQueue *queue;
    };

    struct Later
    {
        bool
        operator()(const Record &a, const Record &b) const
        {
            if (a.when != b.when)
                return a.when > b.when;
            return a.seq > b.seq;
        }
    };

    /** Pop the head record. */
    void popHead() const;

    /** Drop stale records from the head of the heap. */
    void skipCancelled() const;

    /** Remove every record of @p ev (its destructor's cleanup). */
    void purge(Event &ev);

    /** Binary min-heap under Later (std::push_heap/pop_heap). */
    mutable std::vector<Record> heap;
    /** Heap-allocated so an Event's address survives table growth. */
    std::vector<std::unique_ptr<Slot>> slots;
    /** Slots whose callback has run, for reuse. */
    std::vector<Slot *> freeSlots;
    std::size_t pendingCount = 0;
    std::uint64_t nextSeq = 0;
    std::uint64_t numExecuted = 0;
};

} // namespace capy::sim

#endif // CAPY_SIM_EVENT_HH
