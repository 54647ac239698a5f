/**
 * @file
 * Wireless Gesture-activated Remote Control (GRC, §6.1.1): sample a
 * phototransistor for proximity; on detection, run the APDS-9960
 * gesture engine for the 250 ms minimum gesture window; broadcast the
 * decoded direction in an 8-byte BLE packet.
 *
 * Two variants: GRC-Compact keeps gesture recognition and
 * transmission as separate atomic tasks (67.5 mF burst bank);
 * GRC-Fast joins them into one atomic task (45 mF burst bank),
 * trading device size against the recharge latency between
 * recognition and transmission.
 */

#ifndef CAPY_APPS_GRC_HH
#define CAPY_APPS_GRC_HH

#include "apps/experiment.hh"

namespace capy::apps
{

/** GRC task-structure variant. */
enum class GrcVariant
{
    Fast,     ///< gesture + transmit joined into one atomic task
    Compact,  ///< gesture and transmit as separate atomic tasks
};

/**
 * Run the GRC application under @p policy against @p schedule.
 * @param faults optional fault-injection/audit spec (crash sweeps).
 */
RunMetrics runGestureRemote(GrcVariant variant, core::Policy policy,
                            const env::EventSchedule &schedule,
                            std::uint64_t seed,
                            double horizon = kGrcHorizon,
                            const FaultSpec *faults = nullptr);

} // namespace capy::apps

#endif // CAPY_APPS_GRC_HH
