#include "env/light.hh"

#include <algorithm>
#include <cmath>
#include <limits>

#include "sim/logging.hh"

namespace capy::env
{

PwmHalogen::PwmHalogen(double duty_fraction) : duty(duty_fraction)
{
    capy_assert(duty_fraction >= 0.0 && duty_fraction <= 1.0,
                "duty %g out of [0,1]", duty_fraction);
}

power::SolarArray::Illumination
PwmHalogen::illumination() const
{
    double d = duty;
    return [d](sim::Time) { return d; };
}

OrbitLight::OrbitLight(Spec spec) : orbitSpec(spec)
{
    capy_assert(std::isfinite(spec.orbitPeriod) && spec.orbitPeriod > 0.0,
                "orbit period %g s is not a positive duration",
                spec.orbitPeriod);
    capy_assert(spec.eclipseDuration >= 0.0 &&
                    spec.eclipseDuration < spec.orbitPeriod,
                "eclipse %g s outside [0, orbit period %g s)",
                spec.eclipseDuration, spec.orbitPeriod);
}

bool
OrbitLight::sunlit(sim::Time t) const
{
    // Within one orbit fmod(t, P) is t - kP exactly, which rises with
    // t, so it is below the sunlit arc exactly before sunset.
    if (t >= orbitStart && t < orbitEnd)
        return t < sunset;
    double phase = std::fmod(t, orbitSpec.orbitPeriod);
    cacheOrbit(t, phase);
    // Eclipse occupies the tail of each orbit.
    return phase < orbitSpec.orbitPeriod - orbitSpec.eclipseDuration;
}

void
OrbitLight::cacheOrbit(sim::Time t, double phase) const
{
    const double period = orbitSpec.orbitPeriod;
    const double lit = period - orbitSpec.eclipseDuration;
    // Past 2^40 orbits an ulp of t nears the period; the simulator
    // never gets there, and such times (or negative ones) just go
    // uncached.
    if (!(t >= 0.0 && t < 0x1p40 * period))
        return;
    const auto up = [](double x) {
        return std::nextafter(x, std::numeric_limits<double>::infinity());
    };
    const auto down = [](double x) { return std::nextafter(x, 0.0); };
    // Within half a period of a multiple kP of the period, fmod(x, P)
    // is below P/2 exactly from kP on. Each guess below is within two
    // ulps of its boundary (t - phase is kP rounded), so these steps
    // stay in that window.
    const auto wrapped = [&](double x) {
        return std::fmod(x, period) < 0.5 * period;
    };
    const auto firstWrapped = [&](double x) {
        while (!wrapped(x))
            x = up(x);
        while (x > 0.0 && wrapped(down(x)))
            x = down(x);
        return x;
    };
    const double start = firstWrapped(t - phase);
    const double end = firstWrapped(start + period);
    // In [start, end) fmod rises with t: step to the first double at
    // which it reaches the sunlit arc.
    double dusk = std::clamp(start + lit, start, end);
    while (dusk < end && std::fmod(dusk, period) < lit)
        dusk = up(dusk);
    while (dusk > start && std::fmod(down(dusk), period) >= lit)
        dusk = down(dusk);
    orbitStart = start;
    sunset = dusk;
    orbitEnd = end;
}

power::SolarArray::Illumination
OrbitLight::illumination() const
{
    // Capture by value: the copy carries its own orbit memo.
    OrbitLight copy = *this;
    return [copy](sim::Time t) { return copy.sunlit(t) ? 1.0 : 0.0; };
}

sim::Time
OrbitLight::changePeriod() const
{
    double lit = orbitSpec.orbitPeriod - orbitSpec.eclipseDuration;
    return std::min(lit, orbitSpec.eclipseDuration) / 4.0;
}

} // namespace capy::env
