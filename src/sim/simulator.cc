#include "sim/simulator.hh"

#include <utility>

#include "sim/logging.hh"

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

EventId
Simulator::schedule(Time delay, std::function<void()> fn)
{
    capy_assert(delay >= 0.0, "negative delay %g", delay);
    return queue.schedule(currentTime + delay, std::move(fn));
}

EventId
Simulator::scheduleAt(Time when, std::function<void()> fn)
{
    capy_assert(when >= currentTime,
                "scheduleAt(%g) is in the past (now %g)", when,
                currentTime);
    return queue.schedule(when, std::move(fn));
}

void
Simulator::run()
{
    stopRequested = false;
    while (!stopRequested && step(kForever))
        afterEvent();
}

void
Simulator::runUntil(Time until)
{
    capy_assert(until >= currentTime,
                "runUntil(%g) is in the past (now %g)", until,
                currentTime);
    stopRequested = false;
    while (!stopRequested && step(until))
        afterEvent();
    if (!stopRequested)
        currentTime = until;
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
    ev->fire();
    return true;
}

void
Simulator::afterEvent()
{
    if (postEvent)
        postEvent();
}

} // namespace capy::sim
