/**
 * @file
 * Reproduces Fig. 9: report latency for detected events — the time
 * from the external event to the reception of the corresponding BLE
 * packet, for every application x power-system combination.
 *
 * The headline behaviours: Capy-R pays the large-bank charge on the
 * critical path (the paper's TA outlier at ~64 s), while Capy-P's
 * pre-charging keeps latency within ~1.5x of continuous power.
 */

#include <cstdio>
#include <vector>

#include "apps/experiment.hh"
#include "bench_util.hh"
#include "sim/logging.hh"
#include "sim/stats.hh"

using namespace capy;
using namespace capy::apps;
using namespace capy::bench;
using namespace capy::core;

namespace
{

constexpr std::uint64_t kSeed = 20180324;

void
row(sim::Table &t, const char *app, Policy p, const RunMetrics &m)
{
    const auto &lat = m.summary.latency;
    if (lat.count() == 0) {
        t.addRow({app, policyName(p), "0", "-", "-", "-",
                  "(no events reported)"});
        return;
    }
    t.addRow({app, policyName(p), sim::cell(lat.count()),
              sim::cell(lat.mean(), 4), sim::cell(lat.min(), 4),
              sim::cell(lat.max(), 4), bar(lat.mean(), 45.0, 30)});
}

} // namespace

int
main()
{
    setQuiet(true);
    banner("Figure 9", "report latency for detected events");

    // 16 independent runs dispatched as one parallel batch, app-major;
    // results return in submission order.
    std::vector<MetricsJob> jobs;
    for (const PaperApp &a : kPaperApps)
        for (Policy p : kPaperPolicies)
            jobs.push_back([&a, p] {
                return runApp(a, p, drawSchedule(a.schedule, kSeed), kSeed,
                              a.schedule.horizon);
            });
    auto results = runMetricsBatch(jobs);

    sim::Table t({"app", "system", "reported", "mean (s)", "min (s)",
                  "max (s)", ""});
    for (std::size_t i = 0; i < results.size(); ++i)
        row(t, kPaperApps[i / 4].name, kPaperPolicies[i % 4], results[i]);
    t.print();

    const RunMetrics *ta = &results[0], *gf = &results[4],
                     *gc = &results[8], *cs = &results[12];
    enum { PWR, FIXED, CAPYR, CAPYP };
    double ta_r = ta[CAPYR].summary.latency.mean();
    double ta_p = ta[CAPYP].summary.latency.mean();
    double ta_pwr = ta[PWR].summary.latency.mean();

    shapeCheck(ta_r >= 5.0 * ta_p,
               "TA: Capy-R charges the big bank on the critical path "
               "(paper: 64 s) while Capy-P pre-charged it (paper: "
               "2.5 s)");
    shapeCheck(ta[CAPYR].summary.latency.max() >= 30.0,
               "TA: worst Capy-R report waits out a full large-bank "
               "charge");
    shapeCheck(ta_p <= 2.5 * ta_pwr,
               "TA: Capy-P response latency stays within ~1.5-2.5x "
               "of continuous power");
    shapeCheck(gf[CAPYP].summary.latency.mean() <=
                   1.5 * gf[PWR].summary.latency.mean(),
               "GRC-Fast: Capy-P latency within 1.5x of continuous "
               "power");
    shapeCheck(cs[CAPYP].summary.latency.mean() <=
                   1.5 * cs[PWR].summary.latency.mean(),
               "CSR: Capy-P latency within 1.5x of continuous power");
    shapeCheck(gf[FIXED].summary.latency.mean() <=
                   1.3 * gf[PWR].summary.latency.mean(),
               "GRC: the few events Fixed does catch report as fast "
               "as continuous power (no charge between detection and "
               "transmit)");
    shapeCheck(gc[CAPYP].summary.latency.mean() >=
                   0.9 * gf[CAPYP].summary.latency.mean(),
               "GRC-Compact's separate gesture and transmit tasks pay "
               "at least ~GRC-Fast's end-to-end latency");
    return finish();
}
