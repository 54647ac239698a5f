/**
 * @file
 * The simulation clock and main loop. A Simulator owns an EventQueue
 * and advances simulated time by executing events in order.
 */

#ifndef CAPY_SIM_SIMULATOR_HH
#define CAPY_SIM_SIMULATOR_HH

#include "sim/event.hh"

namespace capy::sim
{

/**
 * Event-driven simulation engine.
 *
 * Components schedule the Events they own, or callbacks, relative to
 * the current time with schedule(), or at absolute times with
 * scheduleAt(). run() executes events until the queue drains, a time
 * limit is hit, or stop() is called from inside an event.
 */
class Simulator
{
  public:
    /** Current simulated time in seconds. */
    Time now() const { return currentTime; }

    /**
     * Schedule @p ev to fire @p delay seconds from now.
     * @pre delay >= 0 and !ev.scheduled().
     */
    void schedule(Time delay, Event &ev);

    /**
     * Schedule @p ev at absolute time @p when.
     * @pre when >= now() and !ev.scheduled().
     */
    void scheduleAt(Time when, Event &ev);

    /**
     * Schedule @p fn to run @p delay seconds from now.
     * @pre delay >= 0.
     */
    EventId schedule(Time delay, std::function<void()> fn);

    /**
     * Schedule @p fn at absolute time @p when.
     * @pre when >= now().
     */
    EventId scheduleAt(Time when, std::function<void()> fn);

    /** Cancel @p ev's pending occurrence. @sa EventQueue::cancel */
    bool cancel(Event &ev) { return queue.cancel(ev); }

    /** Cancel a pending event. @sa EventQueue::cancel */
    bool cancel(EventId id) { return queue.cancel(id); }

    /** @retval true if @p id refers to a still-pending event. */
    bool isPending(EventId id) const { return queue.isPending(id); }

    /** Run until the event queue drains or stop() is called. */
    void run();

    /**
     * Run events with timestamps <= @p until, then set the clock to
     * @p until. Events exactly at @p until do execute.
     */
    void runUntil(Time until);

    /** Request that run()/runUntil() return after the current event. */
    void stop() { stopRequested = true; }

    /** Total events executed over the simulator's lifetime. */
    std::uint64_t eventsExecuted() const { return queue.executed(); }

    /** Number of pending (not cancelled) events. */
    std::size_t pendingEvents() const { return queue.pending(); }

    /**
     * Install a hook run after every executed event (instrumentation:
     * event-count-triggered fault injection). One slot; pass an empty
     * function to clear. The hook may schedule events and stop(), and is
     * not invoked for events it causes to run within the same call.
     */
    void
    setPostEventHook(std::function<void()> hook)
    {
        postEvent = std::move(hook);
    }

  private:
    /** Run the earliest event due by @p until, advancing the clock.
     *  @retval false when no event is due. */
    bool step(Time until);
    void afterEvent();

    EventQueue queue;
    Time currentTime = 0.0;
    bool stopRequested = false;
    std::function<void()> postEvent;
};

} // namespace capy::sim

#endif // CAPY_SIM_SIMULATOR_HH
