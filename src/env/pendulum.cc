#include "env/pendulum.hh"

#include "sim/logging.hh"

namespace capy::env
{

Pendulum::Pendulum(const EventSchedule &schedule, Spec spec)
    : events(schedule), pendulumSpec(spec)
{
    capy_assert(spec.swingDuration > 0.0, "swing duration <= 0");
    capy_assert(spec.decodeDeadline < spec.swingDuration,
                "decode deadline beyond the swing");
}

bool
Pendulum::objectPresent(sim::Time t)
{
    return eventAt(t) >= 0;
}

double
Pendulum::fieldStrength(sim::Time t)
{
    // Normalized field: strong while the magnet is overhead.
    return eventAt(t) >= 0 ? 1.0 : 0.05;
}

int
Pendulum::eventAt(sim::Time t)
{
    return events.eventCovering(t, 0.0, pendulumSpec.swingDuration,
                                cursor);
}

Pendulum::GestureResult
Pendulum::senseGesture(sim::Time start, double duration, sim::Rng &rng,
                       int *event_id)
{
    int id = events.eventCovering(start, duration,
                                  pendulumSpec.swingDuration, cursor);
    if (event_id)
        *event_id = id;
    if (id < 0)
        return GestureResult::NoGesture;

    sim::Time swing_start = events.at(static_cast<std::size_t>(id)).time;
    double offset = start - swing_start;
    if (offset > pendulumSpec.decodeDeadline) {
        // Proximity fired too late in the swing: the sensor sees
        // motion but cannot tell the direction (§6.2).
        return GestureResult::Misclassified;
    }
    // Well-timed window; inherent sensor imperfection still applies.
    if (rng.chance(pendulumSpec.pDecodeFail))
        return GestureResult::NoGesture;
    if (rng.chance(pendulumSpec.pMisclassify))
        return GestureResult::Misclassified;
    return GestureResult::Decoded;
}

} // namespace capy::env
