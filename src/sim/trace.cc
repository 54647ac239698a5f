#include "sim/trace.hh"

#include <algorithm>
#include <sstream>

#include "sim/logging.hh"

namespace capy::sim
{

void
TimeSeries::record(Time t, double value)
{
    capy_assert(data.empty() || t >= data.back().t,
                "series '%s': time %g precedes last sample %g",
                seriesName.c_str(), t, data.back().t);
    data.push_back({t, value});
}

double
TimeSeries::at(Time t) const
{
    capy_assert(!data.empty(), "series '%s' is empty",
                seriesName.c_str());
    if (t <= data.front().t)
        return data.front().value;
    if (t >= data.back().t)
        return data.back().value;
    auto it = std::lower_bound(
        data.begin(), data.end(), t,
        [](const TracePoint &p, Time when) { return p.t < when; });
    const TracePoint &hi = *it;
    const TracePoint &lo = *(it - 1);
    if (hi.t == lo.t)
        return hi.value;
    double frac = (t - lo.t) / (hi.t - lo.t);
    return lo.value + frac * (hi.value - lo.value);
}

std::string
TimeSeries::csv() const
{
    std::ostringstream out;
    out << "time," << seriesName << '\n';
    for (const auto &p : data)
        out << p.t << ',' << p.value << '\n';
    return out.str();
}

void
SpanTrace::open(Time t, std::string label)
{
    capy_assert(!openActive, "span '%s' still open",
                openLabelText.c_str());
    capy_assert(completed.empty() || t >= completed.back().end,
                "span at %g precedes previous close %g", t,
                completed.back().end);
    openActive = true;
    openStart_ = t;
    openLabelText = std::move(label);
}

void
SpanTrace::close(Time t)
{
    capy_assert(openActive, "no span open");
    capy_assert(t >= openStart_, "close %g precedes open %g", t,
                openStart_);
    completed.push_back({openStart_, t, openLabelText});
    openActive = false;
}

const std::string &
SpanTrace::openLabel() const
{
    capy_assert(openActive, "no span open");
    return openLabelText;
}

Time
SpanTrace::openStart() const
{
    capy_assert(openActive, "no span open");
    return openStart_;
}

Time
SpanTrace::totalFor(const std::string &label) const
{
    Time total = 0.0;
    for (const auto &s : completed)
        if (s.label == label)
            total += s.duration();
    return total;
}

std::size_t
SpanTrace::countFor(const std::string &label) const
{
    std::size_t n = 0;
    for (const auto &s : completed)
        if (s.label == label)
            ++n;
    return n;
}

} // namespace capy::sim
