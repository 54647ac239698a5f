/**
 * @file
 * Ground-truth external event schedules. The evaluation drives every
 * application with event sequences drawn from Poisson distributions
 * (§6.2) and replays the *same* sequence against each power-system
 * variant, so schedules are explicit, immutable values.
 */

#ifndef CAPY_ENV_EVENTS_HH
#define CAPY_ENV_EVENTS_HH

#include <vector>

#include "sim/event.hh"
#include "sim/random.hh"

namespace capy::env
{

/** One ground-truth external event. */
struct EnvEvent
{
    int id;
    sim::Time time;
};

/** An immutable, time-sorted schedule of ground-truth events. */
class EventSchedule
{
  public:
    EventSchedule() = default;
    explicit EventSchedule(std::vector<sim::Time> times);

    /**
     * Poisson process with mean inter-arrival @p mean_interval over
     * [start_after, horizon).
     */
    static EventSchedule poisson(sim::Rng &rng, double mean_interval,
                                 double horizon,
                                 double start_after = 0.0);

    /**
     * Exactly @p count events over roughly @p horizon with
     * Poisson-like (exponential) gaps, matching the paper's "50
     * events over 120 minutes" style of sequence. The sequence is
     * scaled to fit the horizon.
     */
    static EventSchedule poissonCount(sim::Rng &rng, std::size_t count,
                                      double horizon,
                                      double start_after = 0.0);

    /**
     * poisson() with a private generator constructed from
     * (seed, stream). Lets each parallel sweep job draw its own
     * schedule worker-side — identical to pre-generating on the
     * caller thread with sim::Rng(seed, stream), at any CAPY_JOBS.
     */
    static EventSchedule poissonSeeded(std::uint64_t seed,
                                       std::uint64_t stream,
                                       double mean_interval,
                                       double horizon,
                                       double start_after = 0.0);

    /** poissonCount() with a private (seed, stream) generator. */
    static EventSchedule poissonCountSeeded(std::uint64_t seed,
                                            std::uint64_t stream,
                                            std::size_t count,
                                            double horizon,
                                            double start_after = 0.0);

    const std::vector<EnvEvent> &events() const { return list; }
    std::size_t size() const { return list.size(); }
    bool empty() const { return list.empty(); }
    const EnvEvent &at(std::size_t i) const;

    /** Time of the last event; schedule must be non-empty. */
    sim::Time lastTime() const;

    /**
     * Index of the event active for a window [t, t + dur) given each
     * event spans [time, time + span); -1 when none. When windows
     * overlap several events the earliest unexpired one wins.
     */
    int eventCovering(sim::Time t, double dur, double span) const;

    /**
     * Where the last eventCovering() with this cursor left off: the
     * index of the first event unexpired at its query time. A run's
     * queries mostly move forward, so the next answer lies at or a
     * few events past it. The cursor belongs to the querying rig,
     * never to the shared schedule, so concurrent runs cannot race
     * on it.
     */
    struct Cursor
    {
        std::size_t next = 0;
    };

    /**
     * eventCovering() resumed from @p cursor: a short forward scan,
     * and a binary search only when the query moved backward past
     * the cursor or far ahead (counted in sim::WorkCounts::seeks).
     * The answer is the same as without the cursor for any sequence
     * of queries and spans.
     */
    int eventCovering(sim::Time t, double dur, double span,
                      Cursor &cursor) const;

    /** Ids of events with time in the open interval (t0, t1). */
    std::vector<int> eventsBetween(sim::Time t0, sim::Time t1) const;

  private:
    /** Index of the first event unexpired at @p t (binary search). */
    std::size_t firstUnexpired(sim::Time t, double span) const;
    /** Event @p i's id if it starts before t + @p dur, else -1. */
    int coveringFrom(std::size_t i, sim::Time t, double dur) const;

    std::vector<EnvEvent> list;
};

} // namespace capy::env

#endif // CAPY_ENV_EVENTS_HH
