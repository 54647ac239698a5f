/**
 * @file
 * Ablation (§6.4): the pre-charge voltage penalty. The prototype's
 * switch circuit can pre-charge a bank only to a strictly lower
 * voltage (~0.3 V) than a directly charged bank reaches. A larger
 * penalty shrinks the voltage window Capy-P's bursts run on —
 * increasing top-up work and burst failures — while Capy-R (which
 * always charges directly on the critical path) is unaffected but
 * pays an order of magnitude more latency.
 */

#include <cstdio>
#include <iterator>
#include <utility>
#include <vector>

#include "apps/ta.hh"
#include "bench_util.hh"
#include "sim/logging.hh"
#include "sim/stats.hh"

using namespace capy;
using namespace capy::apps;
using namespace capy::bench;
using namespace capy::core;

int
main()
{
    setQuiet(true);
    banner("Section 6.4 ablation", "pre-charge voltage penalty");

    constexpr std::uint64_t kSeed = 4242;
    auto sched = taSchedule(kSeed);

    std::vector<double> penalties = {0.0, 0.3, 0.6};
    std::vector<MetricsJob> jobs = {[&sched] {
        return runTempAlarm(Policy::CapyR, sched, kSeed);
    }};
    for (double p : penalties)
        jobs.push_back([&sched, p] {
            return runTempAlarm(Policy::CapyP, sched, kSeed,
                                kTaHorizon, p);
        });
    auto results = runMetricsBatch(jobs);
    RunMetrics capy_r = std::move(results[0]);
    std::vector<RunMetrics> runs(
        std::make_move_iterator(results.begin() + 1),
        std::make_move_iterator(results.end()));

    sim::Table t({"system", "correct", "latency mean (s)",
                  "latency max (s)", "burst activations",
                  "burst recharges", "pre-charge phases"});
    t.addRow({"Capy-R (direct charge)",
              sim::cell(capy_r.summary.correct),
              sim::cell(capy_r.summary.latency.mean(), 4),
              sim::cell(capy_r.summary.latency.max(), 4),
              sim::cell(capy_r.runtime.burstActivations),
              sim::cell(capy_r.runtime.burstRecharges),
              sim::cell(capy_r.runtime.prechargePhases)});
    for (std::size_t i = 0; i < penalties.size(); ++i) {
        t.addRow({strfmt("Capy-P (%.1f V penalty)", penalties[i]),
                  sim::cell(runs[i].summary.correct),
                  sim::cell(runs[i].summary.latency.mean(), 4),
                  sim::cell(runs[i].summary.latency.max(), 4),
                  sim::cell(runs[i].runtime.burstActivations),
                  sim::cell(runs[i].runtime.burstRecharges),
                  sim::cell(runs[i].runtime.prechargePhases)});
    }
    t.print();

    const RunMetrics &nominal = runs[1];  // 0.3 V, the prototype
    shapeCheck(nominal.runtime.burstActivations > 0,
               "Capy-P serves alarms from pre-charged bursts");
    shapeCheck(capy_r.runtime.burstActivations == 0,
               "Capy-R has no burst support");
    shapeCheck(capy_r.summary.latency.mean() >
                   5.0 * nominal.summary.latency.mean(),
               "the penalty is well spent: Capy-P latency is an order "
               "of magnitude below Capy-R (§6.4)");
    shapeCheck(runs[2].runtime.burstRecharges >=
                   runs[0].runtime.burstRecharges,
               "a larger penalty forces at least as many critical-path "
               "burst recharges");
    shapeCheck(runs[2].summary.latency.mean() >=
                   runs[0].summary.latency.mean(),
               "a larger penalty cannot improve latency");
    shapeCheck(capy_r.summary.correct + 2 >=
                   nominal.summary.correct,
               "Capy-R's direct-charge efficiency keeps its accuracy "
               "on par (§6.4 / Fig. 10)");
    return finish();
}
