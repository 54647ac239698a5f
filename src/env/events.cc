#include "env/events.hh"

#include <algorithm>

#include "sim/logging.hh"
#include "sim/work.hh"

namespace capy::env
{

EventSchedule::EventSchedule(std::vector<sim::Time> times)
{
    std::sort(times.begin(), times.end());
    list.reserve(times.size());
    for (std::size_t i = 0; i < times.size(); ++i)
        list.push_back(EnvEvent{static_cast<int>(i), times[i]});
}

EventSchedule
EventSchedule::poisson(sim::Rng &rng, double mean_interval,
                       double horizon, double start_after)
{
    return EventSchedule(
        sim::poissonArrivals(rng, mean_interval, horizon, start_after));
}

EventSchedule
EventSchedule::poissonCount(sim::Rng &rng, std::size_t count,
                            double horizon, double start_after)
{
    capy_assert(count >= 1, "need at least one event");
    capy_assert(horizon > start_after, "empty horizon");
    // Draw `count` exponential gaps, then scale so the last event
    // lands at ~95% of the horizon.
    std::vector<sim::Time> times;
    times.reserve(count);
    double t = 0.0;
    for (std::size_t i = 0; i < count; ++i) {
        t += rng.exponential(1.0);
        times.push_back(t);
    }
    double span = horizon - start_after;
    double scale = 0.95 * span / times.back();
    for (auto &v : times)
        v = start_after + v * scale;
    return EventSchedule(std::move(times));
}

EventSchedule
EventSchedule::poissonSeeded(std::uint64_t seed, std::uint64_t stream,
                             double mean_interval, double horizon,
                             double start_after)
{
    sim::Rng rng(seed, stream);
    return poisson(rng, mean_interval, horizon, start_after);
}

EventSchedule
EventSchedule::poissonCountSeeded(std::uint64_t seed,
                                  std::uint64_t stream,
                                  std::size_t count, double horizon,
                                  double start_after)
{
    sim::Rng rng(seed, stream);
    return poissonCount(rng, count, horizon, start_after);
}

const EnvEvent &
EventSchedule::at(std::size_t i) const
{
    capy_assert(i < list.size(), "event index %zu of %zu", i,
                list.size());
    return list[i];
}

sim::Time
EventSchedule::lastTime() const
{
    capy_assert(!list.empty(), "empty schedule");
    return list.back().time;
}

std::size_t
EventSchedule::firstUnexpired(sim::Time t, double span) const
{
    // e.time + span is monotone in e.time (IEEE addition is), so the
    // unexpired events form a suffix; the earliest of them is the
    // only candidate a linear scan could return.
    auto it = std::partition_point(
        list.begin(), list.end(),
        [&](const EnvEvent &e) { return !(t < e.time + span); });
    return std::size_t(it - list.begin());
}

int
EventSchedule::coveringFrom(std::size_t i, sim::Time t, double dur) const
{
    if (i < list.size() && list[i].time < t + dur)
        return list[i].id;
    return -1;
}

int
EventSchedule::eventCovering(sim::Time t, double dur, double span) const
{
    return coveringFrom(firstUnexpired(t, span), t, dur);
}

int
EventSchedule::eventCovering(sim::Time t, double dur, double span,
                             Cursor &cursor) const
{
    constexpr std::size_t kMaxScan = 8;
    auto expired = [&](std::size_t i) {
        return !(t < list[i].time + span);
    };
    // The first unexpired event lies at or past index i exactly when
    // the event before i has expired: then scan forward from the
    // cursor, a few events at most.
    std::size_t i = std::min(cursor.next, list.size());
    if (i == 0 || expired(i - 1)) {
        const std::size_t end = std::min(list.size(), i + kMaxScan);
        while (i < end && expired(i))
            ++i;
        if (i < end || i == list.size()) {
            cursor.next = i;
            return coveringFrom(i, t, dur);
        }
    }
    ++sim::workCounts.seeks;
    cursor.next = firstUnexpired(t, span);
    return coveringFrom(cursor.next, t, dur);
}

std::vector<int>
EventSchedule::eventsBetween(sim::Time t0, sim::Time t1) const
{
    std::vector<int> out;
    auto it = std::partition_point(
        list.begin(), list.end(),
        [&](const EnvEvent &e) { return !(e.time > t0); });
    for (; it != list.end() && it->time < t1; ++it)
        out.push_back(it->id);
    return out;
}

} // namespace capy::env
