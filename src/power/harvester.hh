/**
 * @file
 * Energy harvester models. A harvester exposes the power and voltage
 * available at its output as functions of simulated time; the power
 * system decides how much of that power actually reaches storage
 * (booster efficiency, cold start, limiter).
 */

#ifndef CAPY_POWER_HARVESTER_HH
#define CAPY_POWER_HARVESTER_HH

#include <cstddef>
#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "sim/event.hh"

namespace capy::power
{

/**
 * Abstract energy source. Implementations must be pure functions of
 * time so the transient solver can treat conditions as constant
 * between the boundaries they declare.
 */
class Harvester
{
  public:
    virtual ~Harvester() = default;

    /** Power available at the harvester output at time @p t, W. */
    virtual double power(sim::Time t) const = 0;

    /** Output voltage at time @p t (pre-limiter), V. */
    virtual double voltage(sim::Time t) const = 0;

    /**
     * Next time > @p t at which power() or voltage() changes; kNever
     * for constant sources. The power system integrates in closed
     * form between boundaries.
     */
    virtual sim::Time nextChange(sim::Time t) const = 0;

    /** Human-readable name for traces. */
    virtual std::string name() const = 0;
};

/**
 * Bench-supply harvester: a voltage regulator behind an attenuating
 * resistor, delivering at most a fixed power (the paper's GRC rig
 * supplies at most 10 mW).
 */
class RegulatedSupply : public Harvester
{
  public:
    RegulatedSupply(double max_power, double output_voltage);

    double power(sim::Time) const override { return maxPower; }
    double voltage(sim::Time) const override { return outputVoltage; }
    sim::Time nextChange(sim::Time) const override;
    std::string name() const override { return "regulated-supply"; }

  private:
    double maxPower;
    double outputVoltage;
};

/**
 * Solar panel array: @p n_series panels in series (raising voltage for
 * dim conditions, relying on the limiter in bright light). Delivered
 * power scales with an illumination function in [0, 1] sampled from
 * the environment (e.g. a PWM-dimmed halogen bulb).
 */
class SolarArray : public Harvester
{
  public:
    /** Illumination scale as a function of time, in [0, 1]. */
    using Illumination = std::function<double(sim::Time)>;

    /**
     * @param n_series panels in series.
     * @param panel_peak_power W per panel at illumination 1.0.
     * @param panel_voltage operating voltage per panel at the maximum
     *        power point.
     * @param illum illumination function; nullptr = constant 1.0.
     * @param change_period if the illumination varies, the spacing of
     *        integration boundaries; 0 for constant.
     */
    SolarArray(unsigned n_series, double panel_peak_power,
               double panel_voltage, Illumination illum = nullptr,
               sim::Time change_period = 0.0);

    double power(sim::Time t) const override;
    double voltage(sim::Time t) const override;
    sim::Time nextChange(sim::Time t) const override;
    std::string name() const override { return "solar-array"; }

  private:
    unsigned nSeries;
    double peakPower;
    double panelVoltage;
    Illumination illumination;
    sim::Time changePeriod;
};

/**
 * Trace-replay harvester: plays back a recorded (time, power) trace
 * with step interpolation, looping when the trace is shorter than the
 * simulation. This is how measured deployment conditions (e.g. a
 * day of sunlight, an RF site survey) drive the simulator.
 */
class TraceHarvester : public Harvester
{
  public:
    /** One trace sample: power available from @p time onward. */
    struct Sample
    {
        sim::Time time;
        double power;
    };

    /**
     * @param samples step-wise trace, strictly increasing times,
     *        first sample at t = 0.
     * @param output_voltage harvester output voltage (constant).
     * @param loop whether to repeat the trace past its end; when
     *        false the power is 0 after the last sample + period.
     */
    TraceHarvester(std::vector<Sample> samples, double output_voltage,
                   bool loop = true);

    double power(sim::Time t) const override;
    double voltage(sim::Time) const override { return outputVoltage; }
    sim::Time nextChange(sim::Time t) const override;
    std::string name() const override { return "trace-harvester"; }

    /** Duration covered by the trace (last sample time). */
    sim::Time traceSpan() const { return span; }

  private:
    /** Index of the sample active at trace-local time @p local,
     *  by binary search. */
    std::size_t indexAt(double local) const;

    /** Trace-local time of @p t: the one mapping power() and
     *  nextChange() share, exact (fmod) when looping. */
    double localTime(sim::Time t) const;

    std::vector<Sample> trace;
    double outputVoltage;
    bool looping;
    sim::Time span;
};


} // namespace capy::power

#endif // CAPY_POWER_HARVESTER_HH
