/**
 * @file
 * Light source for solar-harvesting experiments: the 20 W halogen
 * bulb with PWM-controlled brightness of §6.1.2 (42% duty), plus a
 * low-earth-orbit illumination profile for the CapySat case study
 * (sunlit vs eclipse phases of an orbit).
 */

#ifndef CAPY_ENV_LIGHT_HH
#define CAPY_ENV_LIGHT_HH

#include "power/harvester.hh"

namespace capy::env
{

/**
 * Halogen bulb dimmed by PWM: at the harvesting time scale the panel
 * sees the duty-cycle-averaged intensity, so the illumination is a
 * constant fraction.
 */
class PwmHalogen
{
  public:
    explicit PwmHalogen(double duty_fraction);

    double dutyFraction() const { return duty; }

    /** Illumination function for a SolarArray. */
    power::SolarArray::Illumination illumination() const;

  private:
    double duty;
};

/**
 * Low-earth-orbit sunlight: full illumination during the sunlit arc,
 * darkness during eclipse, repeating each orbital period (~92.5 min
 * for a KickSat-class deployment with ~36 min eclipse).
 *
 * sunlit() remembers the exact boundaries of the orbit it last
 * answered in (pure memo state, like the power system's: an
 * OrbitLight, and each copy illumination() makes, serves one
 * simulation, so it needs no locking).
 */
class OrbitLight
{
  public:
    struct Spec
    {
        double orbitPeriod = 5550.0;    ///< s (~92.5 min)
        double eclipseDuration = 2160.0;  ///< s (~36 min)
    };

    /** @p spec needs a finite orbitPeriod > 0 and 0 <= eclipseDuration
     *  < orbitPeriod. */
    explicit OrbitLight(Spec spec);
    OrbitLight() : OrbitLight(Spec{}) {}

    const Spec &spec() const { return orbitSpec; }

    /**
     * Whether the satellite is sunlit at @p t: the eclipse occupies
     * the tail of each orbit, so this is exactly
     * `std::fmod(t, orbitPeriod) < orbitPeriod - eclipseDuration`.
     * Inside the orbit of the last call it is one comparison with
     * that orbit's sunset; fmod runs only where @p t leaves it.
     */
    bool sunlit(sim::Time t) const;

    /** Illumination function for a SolarArray (1 sunlit, 0 eclipse). */
    power::SolarArray::Illumination illumination() const;

    /**
     * Spacing of the harvester's nextChange grid: a quarter of the
     * shorter arc, 540 s by default. The grid does not hold the
     * illumination's changes (the default sunset is at 3390 s and
     * sunrise at 5550 s, neither on the grid); it only bounds a
     * power walk's segment, and the walk reads the light at each
     * segment's start. DESIGN.md's power-layer hot-path paragraph
     * says what that means for queries, and ROADMAP.md item 7 what
     * putting sunset on the grid would move.
     */
    sim::Time changePeriod() const;

  private:
    /** Cache the exact boundaries of the orbit holding @p t, whose
     *  fmod by the period is @p phase. */
    void cacheOrbit(sim::Time t, double phase) const;

    Spec orbitSpec;
    /** The cached orbit: [orbitStart, orbitEnd) holds the doubles
     *  from the first at which fmod(t, period) wraps to the next, and
     *  sunset is the first at which it reaches the sunlit arc's
     *  length (orbitEnd if none does). Empty until a call fills it. */
    mutable sim::Time orbitStart = 0.0;
    mutable sim::Time sunset = 0.0;
    mutable sim::Time orbitEnd = 0.0;
};

} // namespace capy::env

#endif // CAPY_ENV_LIGHT_HH
