#include "sim/event.hh"

#include <algorithm>
#include <utility>

#include "sim/logging.hh"
#include "sim/work.hh"

namespace capy::sim
{

Event::~Event()
{
    if (records > 0)
        queue->purge(*this);
}

EventQueue::~EventQueue()
{
    // Owned events that outlive the queue keep no pointer into it.
    for (const Record &rec : heap) {
        rec.ev->records = 0;
        rec.ev->liveSeq = Event::kIdle;
    }
    heap.clear();
}

void
EventQueue::schedule(Time when, Event &ev)
{
    capy_assert(!ev.scheduled(), "scheduled an already pending event");
    capy_assert(ev.records == 0 || ev.queue == this,
                "event still held by another queue");
    ev.queue = this;
    ev.liveSeq = nextSeq;
    ++ev.records;
    heap.push_back(Record{when, nextSeq++, &ev});
    std::push_heap(heap.begin(), heap.end(), Later{});
    ++pendingCount;
}

void
EventQueue::schedule(Time when, std::function<void()> fn)
{
    capy_assert(static_cast<bool>(fn), "scheduled a null callback");
    ++workCounts.callbackEvents;
    Slot *s;
    if (!freeSlots.empty()) {
        s = freeSlots.back();
        freeSlots.pop_back();
    } else {
        s = slots.emplace_back(std::make_unique<Slot>(this)).get();
    }
    s->fn = std::move(fn);
    schedule(when, s->ev);
}

void
EventQueue::Slot::run(void *slot)
{
    auto *s = static_cast<Slot *>(slot);
    std::function<void()> fn = std::move(s->fn);
    s->queue->freeSlots.push_back(s);
    fn();
}

bool
EventQueue::cancel(Event &ev)
{
    if (!ev.scheduled())
        return false;
    capy_assert(ev.queue == this, "cancelled another queue's event");
    // The heap record becomes stale and is dropped lazily when it
    // reaches the head.
    ev.liveSeq = Event::kIdle;
    --pendingCount;
    return true;
}

void
EventQueue::popHead() const
{
    --heap.front().ev->records;
    std::pop_heap(heap.begin(), heap.end(), Later{});
    heap.pop_back();
}

void
EventQueue::skipCancelled() const
{
    while (!heap.empty() && heap.front().seq != heap.front().ev->liveSeq)
        popHead();
}

void
EventQueue::purge(Event &ev)
{
    cancel(ev);
    std::erase_if(heap, [&ev](const Record &rec) { return rec.ev == &ev; });
    std::make_heap(heap.begin(), heap.end(), Later{});
    ev.records = 0;
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

bool
EventQueue::runsFirst(Time when) const
{
    skipCancelled();
    return heap.empty() || when < heap.front().when;
}

Event *
EventQueue::popDue(Time until, Time &when)
{
    skipCancelled();
    if (heap.empty() || heap.front().when > until)
        return nullptr;
    when = heap.front().when;
    Event *ev = heap.front().ev;
    popHead();
    ev->liveSeq = Event::kIdle;
    --pendingCount;
    ++numExecuted;
    return ev;
}

Time
EventQueue::runNext()
{
    Time when = 0.0;
    Event *ev = popDue(kForever, when);
    capy_assert(ev != nullptr, "runNext() on an empty event queue");
    ev->fire();
    return when;
}

} // namespace capy::sim
