/**
 * @file
 * Reproduces Fig. 8: event detection accuracy for the three
 * applications (TA; GRC in both variants; CSR) under the four power
 * systems (Pwr, Fixed, Capy-R, Capy-P), on Poisson event sequences
 * with the paper's counts/horizons (TA: 50 events / 120 min;
 * GRC/CSR: 80 events / 42 min).
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

constexpr std::uint64_t kSeed = 20180324;  // ASPLOS'18 dates

double
frac(const RunMetrics &m, std::size_t n)
{
    return m.summary.total ? double(n) / double(m.summary.total) : 0.0;
}

} // namespace

int
main()
{
    setQuiet(true);
    banner("Figure 8", "event detection accuracy");

    std::printf("event sequences: TA %zu events / %.0f min, GRC/CSR "
                "%zu events / %.0f min (Poisson)\n\n",
                kTaEvents, kTaHorizon / 60.0, kGrcEvents,
                kGrcHorizon / 60.0);

    // One independent job per app x policy cell, app-major, fanned
    // over the sweep pool; each draws its own schedule, and results
    // come back in submission order so the table is identical at any
    // CAPY_JOBS.
    std::vector<MetricsJob> jobs;
    for (const PaperApp &a : kPaperApps)
        for (Policy p : kPaperPolicies)
            jobs.push_back([&a, p] {
                return runApp(a, p, drawSchedule(a.schedule, kSeed), kSeed,
                              a.schedule.horizon);
            });
    auto results = runMetricsBatch(jobs);
    auto cell = [&](int app, int pol) -> const RunMetrics & {
        return results[std::size_t(app) * 4 + std::size_t(pol)];
    };

    sim::Table t({"app", "system", "correct", "misclassified",
                  "proximity-only", "missed", ""});
    for (int a = 0; a < 4; ++a) {
        for (int i = 0; i < 4; ++i) {
            const auto &m = cell(a, i);
            t.addRow({kPaperApps[a].name, policyName(kPaperPolicies[i]),
                      sim::percentCell(frac(m, m.summary.correct)),
                      sim::percentCell(frac(m, m.summary.misclassified)),
                      sim::percentCell(frac(m, m.summary.proximityOnly)),
                      sim::percentCell(frac(m, m.summary.missed)),
                      bar(frac(m, m.summary.correct), 1.0, 25)});
        }
    }
    t.print();

    auto correct = [&](int app, int pol) {
        return cell(app, pol).summary.fracCorrect;
    };
    enum { PWR, FIXED, CAPYR, CAPYP };

    shapeCheck(correct(0, PWR) >= 0.9 && correct(1, PWR) >= 0.85 &&
                   correct(3, PWR) >= 0.85,
               "continuous power detects nearly all events (with "
               "small inherent sensor/radio losses)");
    shapeCheck(correct(0, CAPYP) >= 1.5 * correct(0, FIXED),
               "TA: Capybara improves accuracy well over Fixed "
               "(paper: 98% vs 46%)");
    shapeCheck(correct(1, CAPYP) >= 2.0 * correct(1, FIXED),
               "GRC-Fast: Capy-P improves 2x+ over Fixed "
               "(paper: 76% vs 18%)");
    shapeCheck(correct(2, CAPYP) >= 2.0 * correct(2, FIXED),
               "GRC-Compact: Capy-P improves 2x+ over Fixed "
               "(paper: 75% vs 18%)");
    shapeCheck(correct(3, CAPYP) >= 2.0 * correct(3, FIXED),
               "CSR: Capy-P improves 2x+ over Fixed "
               "(paper: >=89% vs 56%)");
    shapeCheck(correct(1, CAPYR) <= 0.1 && correct(2, CAPYR) <= 0.1,
               "GRC: Capy-R reports (almost) no gestures — the "
               "charging delay after proximity outlives the motion");
    shapeCheck(correct(0, CAPYR) >= 1.5 * correct(0, FIXED),
               "TA: even Capy-R (no bursts) beats Fixed on accuracy");
    double prox_r =
        frac(cell(1, CAPYR), cell(1, CAPYR).summary.proximityOnly);
    shapeCheck(prox_r >= 0.3,
               "GRC Capy-R mostly sees proximity without a decoded "
               "gesture");
    return finish();
}
