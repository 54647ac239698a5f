/**
 * @file
 * Detection scoring (§6.2-6.4): classify every ground-truth event as
 * Correct / Misclassified / ProximityOnly / Missed, collect report
 * latencies, and analyze inter-sample intervals for the sampling-
 * quality study (Fig. 11).
 *
 * A run's sample times are stored once, in an append-only SampleLog
 * of exact equal-step runs (a task that loops on itself samples at
 * one step, so most samples only extend a run). Its intervals are
 * not materialized: an IntervalView takes the log over at the end of
 * the run, with the times of the events still missed, and yields
 * each classified Interval as it is walked.
 */

#ifndef CAPY_ENV_SCORING_HH
#define CAPY_ENV_SCORING_HH

#include <bit>
#include <cstddef>
#include <cstdint>
#include <iterator>
#include <vector>

#include "env/events.hh"
#include "sim/stats.hh"

namespace capy::env
{

/** Final classification of one ground-truth event (Fig. 8 legend). */
enum class Outcome
{
    Correct,        ///< reported with correct content
    Misclassified,  ///< reported/processed but content wrong
    ProximityOnly,  ///< detected (e.g. proximity) but never decoded
    Missed,         ///< never detected at all
};

const char *outcomeName(Outcome outcome);

/**
 * Append-only log of sample times as runs of equal steps, each
 * {start, step, count}. A run's step is its second sample minus its
 * first, kept only if adding it back gives the second sample; a
 * sample extends the run only if the last one plus the step is that
 * sample, bit for bit. The iterator rebuilds each time with the same
 * addition, so every pushed time comes back exactly. A sample that
 * breaks the step opens a new run: at worst (no two equal steps in
 * a row) a run per two samples, about 12 B per sample.
 */
class SampleLog
{
    struct Run
    {
        sim::Time start;
        sim::Time step;  ///< set by the run's second sample
        std::size_t count;
    };

  public:
    /** Forward iterator yielding the samples in append order, by
     *  value (so a legacy input iterator, as IntervalView's is). */
    class const_iterator
    {
      public:
        using iterator_concept = std::forward_iterator_tag;
        using iterator_category = std::input_iterator_tag;
        using value_type = sim::Time;
        using difference_type = std::ptrdiff_t;
        using pointer = void;
        using reference = sim::Time;

        const_iterator() = default;
        sim::Time operator*() const { return t; }
        const_iterator &
        operator++()
        {
            if (++pos < run->count) {
                t += run->step;
            } else {
                ++run;
                pos = 0;
                if (run != last)
                    t = run->start;
            }
            return *this;
        }
        const_iterator
        operator++(int)
        {
            const_iterator old = *this;
            ++*this;
            return old;
        }
        bool
        operator==(const const_iterator &o) const
        {
            return run == o.run && pos == o.pos;
        }

      private:
        friend class SampleLog;
        const_iterator(const Run *r, const Run *end)
            : run(r), last(end), t(r != end ? r->start : 0.0)
        {}

        const Run *run = nullptr;
        const Run *last = nullptr;  ///< one past the final run
        std::size_t pos = 0;
        sim::Time t = 0.0;
    };

    void
    push(sim::Time t)
    {
        if (runs.empty() || !extend(runs.back(), t))
            runs.push_back({t, 0.0, 1});
        latest = t;
        ++count;
    }

    std::size_t size() const { return count; }
    bool empty() const { return count == 0; }
    sim::Time back() const { return latest; }

    const_iterator
    begin() const
    {
        return {runs.data(), runs.data() + runs.size()};
    }
    const_iterator
    end() const
    {
        const Run *last = runs.data() + runs.size();
        return {last, last};
    }

  private:
    /** Append @p t to @p r if the run's step reaches it exactly;
     *  otherwise leave @p r as it is and return false. */
    bool
    extend(Run &r, sim::Time t) const
    {
        sim::Time step = r.count == 1 ? t - latest : r.step;
        // Bit patterns, not ==, so a signed zero comes back as it went.
        if (std::bit_cast<std::uint64_t>(latest + step) !=
            std::bit_cast<std::uint64_t>(t))
            return false;
        r.step = step;
        ++r.count;
        return true;
    }

    std::vector<Run> runs;
    sim::Time latest = 0.0;  ///< the last sample pushed
    std::size_t count = 0;
};

/** One inter-sample interval with its Fig. 11 classification. */
struct Interval
{
    double length;        ///< s between consecutive samples
    bool backToBack;      ///< below the back-to-back threshold
    bool containsMissed;  ///< >=1 missed event fell inside it
};

/**
 * A run's inter-sample intervals, computed as they are walked. Owns
 * the sample log, the sorted times of the events missed over the
 * run and the back-to-back threshold, so it outlives the Scoreboard
 * and EventSchedule it came from. Move-only: nothing needs a second
 * copy of a run's log.
 */
class IntervalView
{
  public:
    /** Forward iterator yielding each Interval by value (so a
     *  legacy input iterator, as std::views::iota's is). */
    class iterator
    {
      public:
        using iterator_concept = std::forward_iterator_tag;
        using iterator_category = std::input_iterator_tag;
        using value_type = Interval;
        using difference_type = std::ptrdiff_t;
        using pointer = void;
        using reference = Interval;

        iterator() = default;

        Interval
        operator*() const
        {
            sim::Time hi = *next;
            Interval iv;
            iv.length = hi - lo;
            iv.backToBack = iv.length < view->threshold;
            iv.containsMissed = missedAt < view->missed.size() &&
                                view->missed[missedAt] < hi;
            return iv;
        }
        iterator &
        operator++()
        {
            lo = *next;
            ++next;
            skipMissedUpTo(lo);
            return *this;
        }
        iterator
        operator++(int)
        {
            iterator old = *this;
            ++*this;
            return old;
        }
        bool
        operator==(const iterator &o) const
        {
            return next == o.next;
        }

      private:
        friend class IntervalView;

        /** Point the missed cursor at the first missed time > @p t,
         *  so an interval (lo, hi) holds one iff it is < hi. */
        void
        skipMissedUpTo(sim::Time t)
        {
            while (missedAt < view->missed.size() &&
                   !(view->missed[missedAt] > t))
                ++missedAt;
        }

        const IntervalView *view = nullptr;
        SampleLog::const_iterator next;  ///< the interval's upper sample
        sim::Time lo = 0.0;              ///< the interval's lower sample
        std::size_t missedAt = 0;
    };

    IntervalView() = default;
    IntervalView(SampleLog samples, std::vector<sim::Time> missed_times,
                 double back_to_back_threshold);
    IntervalView(IntervalView &&) = default;
    IntervalView &operator=(IntervalView &&) = default;
    IntervalView(const IntervalView &) = delete;
    IntervalView &operator=(const IntervalView &) = delete;

    std::size_t
    size() const
    {
        return log.size() > 1 ? log.size() - 1 : 0;
    }

    iterator begin() const;
    iterator end() const;

  private:
    SampleLog log;
    std::vector<sim::Time> missed;  ///< ascending
    double threshold = 1.0;
};

/**
 * Collects what an application observed and reported during a run,
 * keyed by ground-truth event id, then summarizes accuracy and
 * latency.
 *
 * Recording rules (monotone upgrades): Missed < ProximityOnly <
 * Misclassified < Correct — a later, better observation of the same
 * event upgrades it, and a worse one never downgrades it. This
 * mirrors the paper's counting, where e.g. a gesture that is decoded
 * and delivered counts as correct even if an earlier sample only saw
 * proximity.
 */
class Scoreboard
{
  public:
    explicit Scoreboard(const EventSchedule &schedule);

    /** A detection without decoded content (e.g. proximity fired). */
    void recordDetection(int event_id);

    /** Content decoded/processed but wrong (e.g. swipe direction). */
    void recordMisclassified(int event_id);

    /**
     * A correct report delivered to the receiver at time @p t.
     * Latency is measured against the event's ground-truth time.
     */
    void recordReport(int event_id, sim::Time t);

    /** A sensor sample taken at time @p t (for Fig. 11). */
    void recordSample(sim::Time t);

    /** Current classification of event @p id. */
    Outcome outcome(int event_id) const;

    /** Aggregate results for one run. */
    struct Summary
    {
        std::size_t total = 0;
        std::size_t correct = 0;
        std::size_t misclassified = 0;
        std::size_t proximityOnly = 0;
        std::size_t missed = 0;
        double fracCorrect = 0.0;
        /** Event-to-report latencies of correctly reported events. */
        sim::SummaryStats latency;
    };

    Summary summarize() const;

    using Interval = env::Interval;

    /**
     * Inter-sample intervals, each flagged back-to-back (< @p
     * back_to_back_threshold) or classified by whether a missed
     * ground-truth event fell inside it. Missed means missed as of
     * this call. The rvalue overload moves the sample log into the
     * view (leaving this Scoreboard with none); the lvalue one
     * copies it.
     */
    IntervalView sampleIntervals(double back_to_back_threshold = 1.0) &&;
    IntervalView
    sampleIntervals(double back_to_back_threshold = 1.0) const &;

    /** Samples recorded so far. */
    std::size_t sampleCount() const { return samples.size(); }

  private:
    bool validId(int event_id) const;
    /** Times of the events still Missed, in schedule (time) order. */
    std::vector<sim::Time> missedTimes() const;

    const EventSchedule &schedule;
    std::vector<Outcome> outcomes;
    std::vector<double> reportLatency;  ///< -1 when not reported
    SampleLog samples;
};

} // namespace capy::env

#endif // CAPY_ENV_SCORING_HH
