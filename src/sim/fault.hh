/**
 * @file
 * Deterministic adversarial power-failure injection.
 *
 * The physics only browns a device out where the energy model says it
 * must; the runtime's crash-consistency claims ("survives power
 * failures at any instant", §4) need failures at *chosen* instants,
 * the way Alpaca-style intermittent systems are validated. A
 * FaultPlan names those instants — explicit times, every Nth executed
 * event, or a seeded random schedule — and a FaultInjector drives an
 * injection action (typically Device::injectPowerFailure) through the
 * Simulator so the existing onPowerFail machinery fires exactly as in
 * a physical brownout.
 *
 * Plans are pure data and injection is a pure function of the plan
 * and the simulation, so faulted sweeps stay byte-stable at any
 * CAPY_JOBS like every other sweep.
 */

#ifndef CAPY_SIM_FAULT_HH
#define CAPY_SIM_FAULT_HH

#include <cstdint>
#include <deque>
#include <functional>
#include <limits>
#include <vector>

#include "sim/simulator.hh"

namespace capy::sim
{

/**
 * A deterministic schedule of power-failure injection attempts.
 *
 * Grammar (combinable; all clauses attempt independently):
 *  - `times`: absolute simulation instants;
 *  - `everyNthEvent`/`eventOffset`: attempt after executed event
 *    number eventOffset + k*everyNthEvent (1-based, k >= 1);
 *  - `maxAttempts`: stop attempting after this many attempts (an
 *    attempt against an unpowered device is a no-op but still counts,
 *    so exhaustive sweeps cover every point exactly once).
 */
struct FaultPlan
{
    /** Absolute injection instants, seconds. */
    std::vector<Time> times;
    /** If > 0, attempt after every Nth executed event. */
    std::uint64_t everyNthEvent = 0;
    /** Executed-event count before the first every-Nth attempt. */
    std::uint64_t eventOffset = 0;
    /** Cap on total attempts (time- and event-triggered combined). */
    std::uint64_t maxAttempts =
        std::numeric_limits<std::uint64_t>::max();

    /** No injection clauses at all. */
    bool empty() const { return times.empty() && everyNthEvent == 0; }

    /** Failures at explicit absolute times. */
    static FaultPlan atTimes(std::vector<Time> when);

    /** One attempt immediately after the @p k th executed event
     *  (1-based). The unit of the exhaustive crash sweeps. */
    static FaultPlan atEvent(std::uint64_t k);

    /** An attempt after every @p n th executed event, starting after
     *  @p offset events. */
    static FaultPlan everyNth(std::uint64_t n, std::uint64_t offset = 0);

    /**
     * A seeded Poisson schedule: failures with mean inter-arrival
     * @p mean_interval over [start_after, horizon). Pure function of
     * the arguments (private generator), so sweep jobs can build
     * their own plan on the worker thread.
     */
    static FaultPlan poisson(std::uint64_t seed, double mean_interval,
                             Time horizon, Time start_after = 0.0);
};

/**
 * Executes a FaultPlan against one Simulator.
 *
 * The action is invoked at each attempt and reports whether a failure
 * actually fired (false when the target is already unpowered — a
 * supply glitch is invisible to a device that is off). Each planned
 * time is an Event the injector owns, scheduled at construction in
 * plan order, so an attempt runs before any event scheduled later
 * for the same instant; destroying the injector cancels the attempts
 * still pending. The injector owns the simulator's post-event hook
 * for its lifetime; one injector per simulator, which must outlive
 * it.
 */
class FaultInjector
{
  public:
    /** @return true if the attempt actually failed a powered device. */
    using Action = std::function<bool()>;

    FaultInjector(Simulator &simulator, FaultPlan plan, Action action);
    ~FaultInjector();

    FaultInjector(const FaultInjector &) = delete;
    FaultInjector &operator=(const FaultInjector &) = delete;

    /** Injection attempts so far (time- and event-triggered). */
    std::uint64_t attempts() const { return numAttempts; }

    /** Attempts that actually failed a powered device. */
    std::uint64_t fired() const { return numFired; }

    /** Instants at which a failure actually fired. */
    const std::vector<Time> &firedTimes() const { return whenFired; }

  private:
    void attempt();
    void onEventExecuted();

    Simulator &sim;
    FaultPlan plan;
    Action action;
    std::uint64_t numAttempts = 0;
    std::uint64_t numFired = 0;
    std::vector<Time> whenFired;
    /** One event per planned time; a deque, so the events never
     *  move once scheduled. */
    std::deque<Event> timedAttempts;
};

} // namespace capy::sim

#endif // CAPY_SIM_FAULT_HH
