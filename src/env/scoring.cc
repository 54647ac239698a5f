#include "env/scoring.hh"

#include <iterator>
#include <utility>

#include "sim/logging.hh"

namespace capy::env
{

const char *
outcomeName(Outcome outcome)
{
    switch (outcome) {
      case Outcome::Correct:
        return "correct";
      case Outcome::Misclassified:
        return "misclassified";
      case Outcome::ProximityOnly:
        return "proximity-only";
      case Outcome::Missed:
        return "missed";
    }
    capy_panic("unknown Outcome %d", static_cast<int>(outcome));
}

namespace
{

/** Quality rank for the monotone-upgrade rule. */
int
rank(Outcome o)
{
    switch (o) {
      case Outcome::Missed:
        return 0;
      case Outcome::ProximityOnly:
        return 1;
      case Outcome::Misclassified:
        return 2;
      case Outcome::Correct:
        return 3;
    }
    return -1;
}

} // namespace

static_assert(std::forward_iterator<SampleLog::const_iterator>);
static_assert(std::forward_iterator<IntervalView::iterator>);

IntervalView::IntervalView(SampleLog samples,
                           std::vector<sim::Time> missed_times,
                           double back_to_back_threshold)
    : log(std::move(samples)), missed(std::move(missed_times)),
      threshold(back_to_back_threshold)
{}

IntervalView::iterator
IntervalView::begin() const
{
    if (log.size() < 2)
        return end();
    iterator it;
    it.view = this;
    it.next = log.begin();
    it.lo = *it.next;
    ++it.next;
    it.skipMissedUpTo(it.lo);
    return it;
}

IntervalView::iterator
IntervalView::end() const
{
    iterator it;
    it.view = this;
    it.next = log.end();
    return it;
}

Scoreboard::Scoreboard(const EventSchedule &schedule_ref)
    : schedule(schedule_ref),
      outcomes(schedule_ref.size(), Outcome::Missed),
      reportLatency(schedule_ref.size(), -1.0)
{}

bool
Scoreboard::validId(int event_id) const
{
    return event_id >= 0 &&
           event_id < static_cast<int>(outcomes.size());
}

void
Scoreboard::recordDetection(int event_id)
{
    if (!validId(event_id))
        return;
    auto &slot = outcomes[static_cast<std::size_t>(event_id)];
    if (rank(Outcome::ProximityOnly) > rank(slot))
        slot = Outcome::ProximityOnly;
}

void
Scoreboard::recordMisclassified(int event_id)
{
    if (!validId(event_id))
        return;
    auto &slot = outcomes[static_cast<std::size_t>(event_id)];
    if (rank(Outcome::Misclassified) > rank(slot))
        slot = Outcome::Misclassified;
}

void
Scoreboard::recordReport(int event_id, sim::Time t)
{
    if (!validId(event_id))
        return;
    auto idx = static_cast<std::size_t>(event_id);
    auto &slot = outcomes[idx];
    if (rank(Outcome::Correct) > rank(slot)) {
        slot = Outcome::Correct;
        reportLatency[idx] = t - schedule.at(idx).time;
    }
}

void
Scoreboard::recordSample(sim::Time t)
{
    capy_assert(samples.empty() || t >= samples.back(),
                "samples must be recorded in time order");
    samples.push(t);
}

Outcome
Scoreboard::outcome(int event_id) const
{
    capy_assert(validId(event_id), "bad event id %d", event_id);
    return outcomes[static_cast<std::size_t>(event_id)];
}

Scoreboard::Summary
Scoreboard::summarize() const
{
    Summary s;
    s.total = outcomes.size();
    for (std::size_t i = 0; i < outcomes.size(); ++i) {
        switch (outcomes[i]) {
          case Outcome::Correct:
            ++s.correct;
            s.latency.add(reportLatency[i]);
            break;
          case Outcome::Misclassified:
            ++s.misclassified;
            break;
          case Outcome::ProximityOnly:
            ++s.proximityOnly;
            break;
          case Outcome::Missed:
            ++s.missed;
            break;
        }
    }
    s.fracCorrect =
        s.total ? double(s.correct) / double(s.total) : 0.0;
    return s;
}

std::vector<sim::Time>
Scoreboard::missedTimes() const
{
    std::vector<sim::Time> out;
    for (const EnvEvent &e : schedule.events())
        if (outcomes[static_cast<std::size_t>(e.id)] == Outcome::Missed)
            out.push_back(e.time);
    return out;
}

IntervalView
Scoreboard::sampleIntervals(double back_to_back_threshold) &&
{
    return {std::move(samples), missedTimes(), back_to_back_threshold};
}

IntervalView
Scoreboard::sampleIntervals(double back_to_back_threshold) const &
{
    return {samples, missedTimes(), back_to_back_threshold};
}

} // namespace capy::env
