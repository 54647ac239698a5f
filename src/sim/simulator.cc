#include "sim/simulator.hh"

#include <utility>

#include "sim/logging.hh"
#include "sim/work.hh"

namespace capy::sim
{

void
Simulator::schedule(Time delay, Event &ev)
{
    capy_assert(delay >= 0.0, "negative delay %g", delay);
    queue.schedule(currentTime + delay, ev);
}

void
Simulator::scheduleAt(Time when, Event &ev)
{
    capy_assert(when >= currentTime,
                "scheduleAt(%g) is in the past (now %g)", when,
                currentTime);
    queue.schedule(when, ev);
}

void
Simulator::schedule(Time delay, std::function<void()> fn)
{
    capy_assert(delay >= 0.0, "negative delay %g", delay);
    queue.schedule(currentTime + delay, std::move(fn));
}

void
Simulator::scheduleAt(Time when, std::function<void()> fn)
{
    capy_assert(when >= currentTime,
                "scheduleAt(%g) is in the past (now %g)", when,
                currentTime);
    queue.schedule(when, std::move(fn));
}

void
Simulator::run()
{
    runEvents(kForever);
}

void
Simulator::runUntil(Time until)
{
    capy_assert(until >= currentTime,
                "runUntil(%g) is in the past (now %g)", until,
                currentTime);
    runEvents(until);
    if (!stopRequested)
        currentTime = until;
}

void
Simulator::runEvents(Time until)
{
    stopRequested = false;
    limit = until;
    while (!stopRequested && step(until)) {
        if (eventOpen)
            closeEvent();
    }
}

bool
Simulator::step(Time until)
{
    Time when = 0.0;
    Event *ev = queue.popDue(until, when);
    if (!ev)
        return false;
    capy_assert(when >= currentTime, "event time %g behind clock %g",
                when, currentTime);
    currentTime = when;
    eventOpen = true;
    ev->fire();
    return true;
}

void
Simulator::closeEvent()
{
    capy_assert(eventOpen, "closeEvent() with no open event");
    eventOpen = false;
    if (postEvent)
        postEvent();
}

bool
Simulator::claimInPlace(Time when)
{
    capy_assert(!eventOpen, "claimInPlace() while an event is open");
    capy_assert(when >= currentTime,
                "claimInPlace(%g) is in the past (now %g)", when,
                currentTime);
    if (stopRequested || when > limit || !queue.runsFirst(when))
        return false;
    currentTime = when;
    eventOpen = true;
    ++numInPlace;
    ++workCounts.inPlace;
    return true;
}

} // namespace capy::sim
