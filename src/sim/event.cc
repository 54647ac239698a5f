#include "sim/event.hh"

#include <algorithm>
#include <utility>

#include "sim/logging.hh"

namespace capy::sim
{

EventId
EventQueue::schedule(Time when, Callback &&fn)
{
    capy_assert(static_cast<bool>(fn), "scheduled a null callback");
    std::uint32_t slot;
    if (!freeSlots.empty()) {
        slot = freeSlots.back();
        freeSlots.pop_back();
    } else {
        slot = std::uint32_t(slots.size());
        slots.emplace_back();
    }
    Slot &s = slots[slot];
    s.fn = std::move(fn);
    s.live = true;
    EventId id = makeId(slot, s.gen);
    heap.push_back(Record{when, nextSeq++, id});
    std::push_heap(heap.begin(), heap.end(), Later{});
    ++pendingCount;
    return id;
}

bool
EventQueue::cancel(EventId id)
{
    if (id == kInvalidEvent)
        return false;
    std::uint32_t slot = slotOf(id);
    if (slot >= slots.size())
        return false;
    Slot &s = slots[slot];
    if (!s.live || s.gen != genOf(id))
        return false;
    // The heap record becomes stale and is dropped lazily when it
    // reaches the head; the callback's captures are released now and
    // the slot is reusable immediately.
    s.fn = Callback();
    retire(slot);
    return true;
}

bool
EventQueue::isPending(EventId id) const
{
    if (id == kInvalidEvent)
        return false;
    std::uint32_t slot = slotOf(id);
    return slot < slots.size() && slots[slot].live &&
           slots[slot].gen == genOf(id);
}

void
EventQueue::skipCancelled() const
{
    while (!heap.empty() && stale(heap.front())) {
        std::pop_heap(heap.begin(), heap.end(), Later{});
        heap.pop_back();
    }
}

bool
EventQueue::empty() const
{
    skipCancelled();
    return heap.empty();
}

Time
EventQueue::nextTime() const
{
    skipCancelled();
    capy_assert(!heap.empty(), "nextTime() on an empty event queue");
    return heap.front().when;
}

Callback
EventQueue::popDue(Time until, Time &when)
{
    Callback fn;  // the only object returned, so it is constructed in place
    skipCancelled();
    if (heap.empty() || heap.front().when > until)
        return fn;
    when = heap.front().when;
    std::uint32_t slot = slotOf(heap.front().id);
    std::pop_heap(heap.begin(), heap.end(), Later{});
    heap.pop_back();
    fn = std::move(slots[slot].fn);
    retire(slot);
    ++numExecuted;
    return fn;
}

Time
EventQueue::runNext()
{
    Time when = 0.0;
    Callback fn = popDue(kForever, when);
    capy_assert(static_cast<bool>(fn), "runNext() on an empty event queue");
    fn();
    return when;
}

} // namespace capy::sim
