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
 *
 * A handler whose next event would be the next one the queue runs
 * anyway may run it in place instead of scheduling it:
 * closeEvent() ends the running event, and claimInPlace() checks the
 * rule and opens the next one. An event run in place is executed
 * exactly as a queued one would be: same clock, same count, same
 * post-event hook.
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
     * Schedule @p fn to run @p delay seconds from now, as a callback
     * event that cannot be cancelled.
     * @pre delay >= 0.
     */
    void schedule(Time delay, std::function<void()> fn);

    /**
     * Schedule @p fn at absolute time @p when, as a callback event
     * that cannot be cancelled.
     * @pre when >= now().
     */
    void scheduleAt(Time when, std::function<void()> fn);

    /** Cancel @p ev's pending occurrence. @sa EventQueue::cancel */
    bool cancel(Event &ev) { return queue.cancel(ev); }

    /** Run until the event queue drains or stop() is called. */
    void run();

    /**
     * Run events with timestamps <= @p until, then set the clock to
     * @p until. Events exactly at @p until do execute.
     */
    void runUntil(Time until);

    /** Request that run()/runUntil() return after the current event. */
    void stop() { stopRequested = true; }

    /**
     * End the running event now: run the post-event hook for it and
     * mark it closed, so run()/runUntil() do not run the hook for it
     * a second time.
     * @pre called from inside an event that is still open.
     */
    void closeEvent();

    /**
     * Claim an event at @p when to run in place, inside the running
     * handler, instead of through the queue. True only if no stop()
     * is pending, @p when is within the current run's limit
     * (runUntil()'s @p until; none for run()), and @p when is
     * strictly earlier than every pending event (a tie goes to the
     * queued event, which keeps FIFO order). Then the clock moves to
     * @p when, the claimed event counts as executed and is open, and
     * the caller runs it now; on false nothing changes and the caller
     * schedules it.
     * @pre the running event is closed (closeEvent()) and
     *      when >= now().
     */
    bool claimInPlace(Time when);

    /** Total events executed over the simulator's lifetime, queued
     *  and in place. */
    std::uint64_t
    eventsExecuted() const
    {
        return queue.executed() + numInPlace;
    }

    /** Number of pending (not cancelled) events. */
    std::size_t pendingEvents() const { return queue.pending(); }

    /**
     * Install a hook run after every executed event (instrumentation:
     * event-count-triggered fault injection), including every event
     * run in place. It runs from closeEvent(): a handler that runs
     * events in place calls it before each claim, and the run loop
     * calls it for an event still open when its handler returns. One
     * slot; pass an empty function to clear.
     * The hook may schedule events and stop(), and is not invoked for
     * events it causes to run within the same call.
     */
    void
    setPostEventHook(std::function<void()> hook)
    {
        postEvent = std::move(hook);
    }

  private:
    /** Run the events due by @p until, stopping when none is left or
     *  stop() is called. */
    void runEvents(Time until);

    /** Run the earliest event due by @p until, advancing the clock.
     *  @retval false when no event is due. */
    bool step(Time until);

    EventQueue queue;
    Time currentTime = 0.0;
    /** The running run()/runUntil()'s limit, for claimInPlace(). */
    Time limit = kForever;
    bool stopRequested = false;
    /** An event is running and its post-event hook has not run. */
    bool eventOpen = false;
    /** Events run in place (claimInPlace()). */
    std::uint64_t numInPlace = 0;
    std::function<void()> postEvent;
};

} // namespace capy::sim

#endif // CAPY_SIM_SIMULATOR_HH
