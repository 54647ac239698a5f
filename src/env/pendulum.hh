/**
 * @file
 * The servo-driven pendulum rig (Fig. 7): a rigid pendulum swings a
 * tap-and-swipe motion over the board at each scheduled event,
 * presenting a proximity target, a decodable gesture, and (for CSR) a
 * moving magnet.
 */

#ifndef CAPY_ENV_PENDULUM_HH
#define CAPY_ENV_PENDULUM_HH

#include "env/events.hh"
#include "sim/random.hh"

namespace capy::env
{

/**
 * Pendulum actuation model. Each event at time T produces a swing
 * over [T, T + swingDuration). A gesture sensor window that starts
 * early enough in the swing decodes the motion direction; one that
 * starts too late sees motion but cannot distinguish direction
 * ("misclassified", §6.2); no overlap means no gesture at all.
 */
class Pendulum
{
  public:
    struct Spec
    {
        /** Time the pendulum is over the board per swing, s. */
        double swingDuration = 0.6;
        /**
         * Latest window start (relative to swing start) that still
         * allows direction decoding.
         */
        double decodeDeadline = 0.3;
        /** Chance a well-timed window still fails to decode
         *  (inherent sensor imperfection, visible even on continuous
         *  power in Fig. 8). */
        double pDecodeFail = 0.05;
        /** Chance a well-timed window decodes the wrong direction. */
        double pMisclassify = 0.03;
    };

    Pendulum(const EventSchedule &schedule, Spec spec);
    explicit Pendulum(const EventSchedule &schedule)
        : Pendulum(schedule, Spec{})
    {}

    const EventSchedule &schedule() const { return events; }
    const Spec &spec() const { return pendulumSpec; }

    /** Is the pendulum over the board at time @p t? (proximity /
     *  phototransistor signal) */
    bool objectPresent(sim::Time t);

    /** Magnetic field magnitude at @p t (arbitrary units; elevated
     *  while the magnet swings by). */
    double fieldStrength(sim::Time t);

    /** Id of the swing active at @p t; -1 if none. */
    int eventAt(sim::Time t);

    /** Outcome of a gesture-sensing window. */
    enum class GestureResult
    {
        NoGesture,      ///< window did not overlap a swing usefully
        Misclassified,  ///< motion seen too late to decode direction
        Decoded,        ///< direction decoded correctly
    };

    /**
     * Classify a gesture-sensing window [start, start + duration).
     * @param rng resolves the inherent sensor imperfection.
     * @param event_id out: the swing involved, or -1.
     */
    GestureResult senseGesture(sim::Time start, double duration,
                               sim::Rng &rng, int *event_id);

  private:
    const EventSchedule &events;
    Spec pendulumSpec;
    /** Where this rig's last schedule lookup left off. */
    EventSchedule::Cursor cursor;
};

} // namespace capy::env

#endif // CAPY_ENV_PENDULUM_HH
