#include "power/harvester.hh"

#include <algorithm>
#include <cmath>

#include "power/solver.hh"
#include "sim/logging.hh"

namespace capy::power
{

RegulatedSupply::RegulatedSupply(double max_power, double output_voltage)
    : maxPower(max_power), outputVoltage(output_voltage)
{
    capy_assert(max_power >= 0.0, "negative supply power");
    capy_assert(output_voltage > 0.0, "non-positive supply voltage");
}

sim::Time
RegulatedSupply::nextChange(sim::Time) const
{
    return kNever;
}

SolarArray::SolarArray(unsigned n_series, double panel_peak_power,
                       double panel_voltage, Illumination illum,
                       sim::Time change_period)
    : nSeries(n_series), peakPower(panel_peak_power),
      panelVoltage(panel_voltage), illumination(std::move(illum)),
      changePeriod(change_period)
{
    capy_assert(n_series >= 1, "need at least one panel");
    capy_assert(panel_peak_power >= 0.0, "negative panel power");
    capy_assert(panel_voltage > 0.0, "non-positive panel voltage");
    capy_assert(!illumination || change_period > 0.0,
                "varying illumination needs a change period");
}

double
SolarArray::power(sim::Time t) const
{
    if (!illumination)
        return double(nSeries) * peakPower;
    return double(nSeries) * peakPower *
           std::clamp(illumination(t), 0.0, 1.0);
}

double
SolarArray::voltage(sim::Time) const
{
    return double(nSeries) * panelVoltage;
}

sim::Time
SolarArray::nextChange(sim::Time t) const
{
    if (!illumination)
        return kNever;
    // Boundaries on a fixed grid, strictly after t: at a grid instant
    // t / changePeriod can round to just below the integer k whose
    // k * changePeriod rounds back to t.
    double steps = std::floor(t / changePeriod) + 1.0;
    if (steps * changePeriod <= t)
        steps += 1.0;
    return steps * changePeriod;
}

TraceHarvester::TraceHarvester(std::vector<Sample> samples,
                               double output_voltage, bool loop)
    : trace(std::move(samples)), outputVoltage(output_voltage),
      looping(loop)
{
    capy_assert(!trace.empty(), "empty harvest trace");
    capy_assert(trace.front().time == 0.0,
                "trace must start at t = 0");
    for (std::size_t i = 0; i < trace.size(); ++i) {
        capy_assert(trace[i].power >= 0.0, "negative trace power");
        capy_assert(i == 0 || trace[i].time > trace[i - 1].time,
                    "trace times must be strictly increasing");
    }
    capy_assert(output_voltage > 0.0, "non-positive trace voltage");
    // The final step lasts as long as the mean step, so a looping
    // trace has a well-defined period.
    double mean_step = trace.size() > 1
                           ? trace.back().time /
                                 double(trace.size() - 1)
                           : 1.0;
    span = trace.back().time + mean_step;
}

std::size_t
TraceHarvester::indexAt(double local) const
{
    // Last sample with time <= local.
    std::size_t lo = 0, hi = trace.size();
    while (hi - lo > 1) {
        std::size_t mid = (lo + hi) / 2;
        if (trace[mid].time <= local)
            lo = mid;
        else
            hi = mid;
    }
    return lo;
}

double
TraceHarvester::localTime(sim::Time t) const
{
    capy_assert(t >= 0.0, "negative time");
    return looping ? std::fmod(t, span) : t;
}

double
TraceHarvester::power(sim::Time t) const
{
    if (!looping && t >= span)
        return 0.0;
    return trace[indexAt(localTime(t))].power;
}

sim::Time
TraceHarvester::nextChange(sim::Time t) const
{
    if ((!looping && t >= span) || (looping && trace.size() == 1))
        return kNever;  // past the end, or one sample looped forever
    double local = localTime(t);
    std::size_t idx = indexAt(local);
    bool wraps = looping && idx + 1 == trace.size();
    double next_local =
        idx + 1 < trace.size() ? trace[idx + 1].time : span;
    // Whether power(x), for x less than a loop after t, reads past
    // sample idx. localTime() is exact, so it rises with x until the
    // wrap, where it falls below local.
    auto reads_next = [&](sim::Time x) {
        double l = localTime(x);
        return wraps ? l < local : l >= next_local;
    };
    // The loop's start (t - local) and the sum round: step up to the
    // first instant that reads the next sample, so a walk split here
    // sees the change. On a trace's first pass, next is exact.
    sim::Time next = (t - local) + next_local;
    while (next <= t || !reads_next(next))
        next = std::nextafter(next, kNever);
    return next;
}

RfHarvester::RfHarvester(double harvest_power, double rectified_voltage)
    : harvestPower(harvest_power), rectifiedVoltage(rectified_voltage)
{
    capy_assert(harvest_power >= 0.0, "negative RF power");
    capy_assert(rectified_voltage > 0.0, "non-positive RF voltage");
}

sim::Time
RfHarvester::nextChange(sim::Time) const
{
    return kNever;
}

} // namespace capy::power
