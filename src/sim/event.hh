/**
 * @file
 * Discrete-event queue: time-ordered callbacks with stable FIFO
 * ordering among simultaneous events and O(1) cancellation.
 *
 * Bookkeeping uses generation-counted slots instead of hash sets:
 * every event occupies a slot that holds its callback and a
 * generation counter bumped when the event runs or is cancelled. The
 * heap orders plain {when, seq, id} records, so sifting moves no
 * callable; a record whose embedded generation no longer matches its
 * slot is stale and gets skipped lazily at the head of the heap.
 * Cancel is a counter bump that also frees the callback, and slots
 * recycle through a free list, so long-lived simulators with heavy
 * cancel traffic retain no tombstone state.
 */

#ifndef CAPY_SIM_EVENT_HH
#define CAPY_SIM_EVENT_HH

#include <cstdint>
#include <limits>
#include <vector>

#include "sim/callback.hh"

namespace capy::sim
{

/** Simulated time in seconds. */
using Time = double;

/** A time no event comes after (popDue's limit for "any event"). */
inline constexpr Time kForever = std::numeric_limits<Time>::infinity();

/** Handle identifying a scheduled event; 0 is never a valid id. */
using EventId = std::uint64_t;

/** Sentinel id meaning "no event". */
inline constexpr EventId kInvalidEvent = 0;

/**
 * Min-heap of timestamped callbacks. Events scheduled for the same
 * instant run in scheduling order. Cancelled events are skipped lazily
 * when they reach the head of the heap.
 */
class EventQueue
{
  public:
    /**
     * Schedule @p fn to run at absolute time @p when.
     * @return a handle usable with cancel().
     */
    EventId schedule(Time when, Callback &&fn);

    /**
     * Cancel a previously scheduled event.
     * @retval true if the event was pending and is now cancelled.
     * @retval false if it already ran, was already cancelled, or the
     *         handle is invalid.
     */
    bool cancel(EventId id);

    /** @return true when no runnable events remain. */
    bool empty() const;

    /** Time of the earliest pending event; empty() must be false. */
    Time nextTime() const;

    /**
     * Pop the earliest pending event and run its callback.
     * @return the time at which the event ran.
     */
    Time runNext();

    /**
     * Pop the earliest pending event if it is due at or before
     * @p until: store its time in @p when and return its callback,
     * counted as executed and already retired from its slot, so
     * running it may schedule into that slot or grow the slot table.
     * @return an empty Callback when no event is due.
     */
    Callback popDue(Time until, Time &when);

    /** Number of events executed so far. */
    std::uint64_t executed() const { return numExecuted; }

    /** Number of events currently pending (excludes cancelled). */
    std::size_t pending() const { return pendingCount; }

    /** @retval true if @p id refers to a still-pending event. */
    bool isPending(EventId id) const;

    /** Slots allocated over the queue's lifetime (bookkeeping bound:
     *  never exceeds the peak number of simultaneously pending
     *  events). */
    std::size_t slotCapacity() const { return slots.size(); }

    /**
     * Process-wide count of scheduled callbacks whose capture
     * overflowed Callback's inline buffer and heap-allocated. The
     * inline size was chosen so device/kernel hot paths never
     * overflow; hot-path benches assert this stays 0.
     */
    static std::uint64_t
    callbackHeapFallbacks()
    {
        return Callback::heapFallbacks();
    }

  private:
    /** Heap entry: plain data, ordered by (when, seq). */
    struct Record
    {
        Time when;
        std::uint64_t seq;
        EventId id;
    };

    /** An event's callback and liveness: gen changes whenever the
     *  slot's current event ends (runs or is cancelled), invalidating
     *  old handles and any stale heap record. */
    struct Slot
    {
        Callback fn;
        std::uint32_t gen = 0;
        bool live = false;
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

    /** An EventId packs (generation, slot + 1) so that 0 stays
     *  invalid and handles from recycled slots never compare equal. */
    static EventId
    makeId(std::uint32_t slot, std::uint32_t gen)
    {
        return (EventId(gen) << 32) | EventId(slot + 1);
    }

    static std::uint32_t
    slotOf(EventId id)
    {
        return std::uint32_t(id & 0xffffffffu) - 1;
    }

    static std::uint32_t
    genOf(EventId id)
    {
        return std::uint32_t(id >> 32);
    }

    /** A heap record whose slot moved on (ran/cancelled/recycled). */
    bool
    stale(const Record &rec) const
    {
        const Slot &s = slots[slotOf(rec.id)];
        return !s.live || s.gen != genOf(rec.id);
    }

    /** Retire @p slot: invalidate its handles and recycle it. The
     *  callback must already be moved out or reset. */
    void
    retire(std::uint32_t slot)
    {
        Slot &s = slots[slot];
        s.live = false;
        ++s.gen;
        freeSlots.push_back(slot);
        --pendingCount;
    }

    /** Drop stale records from the head of the heap. */
    void skipCancelled() const;

    /** Binary min-heap under Later (std::push_heap/pop_heap). */
    mutable std::vector<Record> heap;
    std::vector<Slot> slots;
    std::vector<std::uint32_t> freeSlots;
    std::size_t pendingCount = 0;
    std::uint64_t nextSeq = 0;
    std::uint64_t numExecuted = 0;
};

} // namespace capy::sim

#endif // CAPY_SIM_EVENT_HH
