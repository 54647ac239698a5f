#include "env/thermal.hh"

#include <cmath>

#include "sim/logging.hh"

namespace capy::env
{

ThermalRig::ThermalRig(const EventSchedule &schedule, Spec spec)
    : events(schedule), rigSpec(spec)
{
    capy_assert(spec.bandLo < spec.baseTemp &&
                    spec.baseTemp < spec.bandHi,
                "base temperature must sit inside the band");
    capy_assert(spec.peakTemp > spec.bandHi, "excursion must leave "
                                             "the band");
    capy_assert(spec.rampTime > 0.0 && spec.holdTime >= 0.0,
                "bad excursion timing");
    capy_assert(spec.baseTemp + spec.wanderAmp < spec.bandHi &&
                    spec.baseTemp - spec.wanderAmp > spec.bandLo,
                "wander must stay inside the band");
}

double
ThermalRig::excursionShape(double dt) const
{
    double rise = rigSpec.peakTemp - rigSpec.baseTemp;
    if (dt < 0.0)
        return 0.0;
    if (dt < rigSpec.rampTime)
        return rise * dt / rigSpec.rampTime;
    if (dt < rigSpec.rampTime + rigSpec.holdTime)
        return rise;
    double fall = dt - rigSpec.rampTime - rigSpec.holdTime;
    if (fall < rigSpec.rampTime)
        return rise * (1.0 - fall / rigSpec.rampTime);
    return 0.0;
}

double
ThermalRig::excursionDuration() const
{
    return 2.0 * rigSpec.rampTime + rigSpec.holdTime;
}

double
ThermalRig::outOfRangeDuration() const
{
    // Out of band while excursionShape > bandHi - baseTemp.
    double rise = rigSpec.peakTemp - rigSpec.baseTemp;
    double threshold = rigSpec.bandHi - rigSpec.baseTemp;
    double ramp_fraction = threshold / rise;
    double in_ramp = rigSpec.rampTime * (1.0 - ramp_fraction);
    return 2.0 * in_ramp + rigSpec.holdTime;
}

double
ThermalRig::temperature(sim::Time t)
{
    int id;
    return temperature(t, id);
}

double
ThermalRig::temperature(sim::Time t, int &id)
{
    if (t == memoTime) {
        id = memoId;
        return memoTemp;
    }
    double temp =
        rigSpec.baseTemp +
        rigSpec.wanderAmp *
            std::sin(2.0 * M_PI * t / rigSpec.wanderPeriod);
    id = events.eventCovering(t, 0.0, excursionDuration(), cursor);
    if (id >= 0) {
        double dt = t - events.at(static_cast<std::size_t>(id)).time;
        // The control loop suspends the wander during an excursion.
        temp = rigSpec.baseTemp + excursionShape(dt);
    }
    memoTime = t;
    memoTemp = temp;
    memoId = id;
    return temp;
}

bool
ThermalRig::outOfBand(double temp) const
{
    return temp > rigSpec.bandHi || temp < rigSpec.bandLo;
}

bool
ThermalRig::outOfRange(sim::Time t)
{
    return outOfBand(temperature(t));
}

int
ThermalRig::alarmEventAt(sim::Time t)
{
    int id;
    return outOfBand(temperature(t, id)) ? id : -1;
}

} // namespace capy::env
