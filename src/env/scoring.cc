#include "env/scoring.hh"

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
    capy_assert(sampleTimes.empty() || t >= sampleTimes.back(),
                "samples must be recorded in time order");
    sampleTimes.push_back(t);
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

std::vector<Scoreboard::Interval>
Scoreboard::sampleIntervals(double back_to_back_threshold) const
{
    // Samples and events are both time-ordered, so one forward cursor
    // visits each event at most once across all intervals; interval i
    // holds the events eventsBetween(sample[i-1], sample[i]) returns.
    const std::vector<EnvEvent> &events = schedule.events();
    std::size_t next = 0;
    std::vector<Interval> out;
    if (sampleTimes.size() > 1)
        out.reserve(sampleTimes.size() - 1);
    for (std::size_t i = 1; i < sampleTimes.size(); ++i) {
        sim::Time lo = sampleTimes[i - 1];
        sim::Time hi = sampleTimes[i];
        Interval iv;
        iv.length = hi - lo;
        iv.backToBack = iv.length < back_to_back_threshold;
        iv.containsMissed = false;
        while (next < events.size() && !(events[next].time > lo))
            ++next;
        for (; next < events.size() && events[next].time < hi; ++next) {
            if (outcomes[static_cast<std::size_t>(events[next].id)] ==
                Outcome::Missed) {
                iv.containsMissed = true;
                break;
            }
        }
        out.push_back(iv);
    }
    return out;
}

} // namespace capy::env
