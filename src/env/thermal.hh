/**
 * @file
 * The thermal rig of §6.1.2: a heatsink with a heating element and a
 * Peltier cooler under a bang-bang control loop that keeps the
 * temperature inside a fixed band, and pushes it out of the band at
 * each scheduled event to create an alarm excursion.
 */

#ifndef CAPY_ENV_THERMAL_HH
#define CAPY_ENV_THERMAL_HH

#include <limits>

#include "env/events.hh"

namespace capy::env
{

/**
 * Heatsink temperature as a deterministic function of time: a mild
 * in-band wander, interrupted by trapezoidal out-of-band excursions
 * at each scheduled event.
 */
class ThermalRig
{
  public:
    struct Spec
    {
        double baseTemp = 35.0;   ///< steady in-band temperature, C
        double bandLo = 30.0;     ///< alarm band lower edge, C
        double bandHi = 40.0;     ///< alarm band upper edge, C
        double peakTemp = 46.0;   ///< excursion peak, C
        double rampTime = 5.0;    ///< base->peak ramp, s
        double holdTime = 15.0;   ///< time at peak, s
        double wanderAmp = 1.5;   ///< in-band wander amplitude, C
        double wanderPeriod = 47.0;  ///< in-band wander period, s
    };

    ThermalRig(const EventSchedule &schedule, Spec spec);
    explicit ThermalRig(const EventSchedule &schedule)
        : ThermalRig(schedule, Spec{})
    {}

    const EventSchedule &schedule() const { return events; }
    const Spec &spec() const { return rigSpec; }

    /** Heatsink temperature at @p t, C. */
    double temperature(sim::Time t);

    /** Whether the temperature is outside the alarm band at @p t. */
    bool outOfRange(sim::Time t);

    /** Id of the excursion that makes @p t out-of-range; -1 if the
     *  temperature is in band at @p t. */
    int alarmEventAt(sim::Time t);

    /** Total duration of one excursion (ramp + hold + ramp), s. */
    double excursionDuration() const;

    /** Duration for which one excursion stays out of band, s. */
    double outOfRangeDuration() const;

  private:
    /** temperature(), also setting @p id to the excursion covering
     *  @p t (-1 when none). */
    double temperature(sim::Time t, int &id);

    bool outOfBand(double temp) const;

    /** Excursion contribution (degrees above base) at offset @p dt
     *  into an excursion; 0 outside it. */
    double excursionShape(double dt) const;

    const EventSchedule &events;
    Spec rigSpec;
    /** Where this rig's last schedule lookup left off. */
    EventSchedule::Cursor cursor;
    /** The last temperature(t, id) answer, by exact time: the TA
     *  sample task reads temperature() and then alarmEventAt() at one
     *  instant, and the second read reuses the first. */
    sim::Time memoTime = std::numeric_limits<double>::quiet_NaN();
    double memoTemp = 0.0;
    int memoId = -1;
};

} // namespace capy::env

#endif // CAPY_ENV_THERMAL_HH
