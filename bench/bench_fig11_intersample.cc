/**
 * @file
 * Reproduces Fig. 11: the distribution of times between temperature
 * samples in the TA application for Fixed, Capy-R, and Capy-P, on the
 * same sequence of 20 temperature events.
 *
 * Sub-second intervals are back-to-back samples of limited utility
 * (gray in the paper); the remaining intervals split into ones during
 * which an event was missed (red) and event-free ones (green). Fixed
 * forces long 50-250 s gaps (large-bank recharges); Capybara's gaps
 * concentrate at the small bank's 1.5-4 s charge time, with only as
 * many long gaps as there are alarms to transmit.
 */

#include <cstdio>
#include <vector>

#include "apps/ta.hh"
#include "bench_util.hh"
#include "env/events.hh"
#include "sim/logging.hh"
#include "sim/stats.hh"

using namespace capy;
using namespace capy::apps;
using namespace capy::bench;
using namespace capy::core;

namespace
{

constexpr std::uint64_t kSeed = 1111;

struct Dist
{
    const char *name;
    RunMetrics metrics;
    // Short-range histogram (0..4 s) and long-range (4..310 s).
    std::uint64_t backToBack = 0;
    std::uint64_t shortGaps = 0;   ///< 1..4 s
    std::uint64_t longGaps = 0;    ///< > 4 s
    std::uint64_t longMissed = 0;  ///< long gaps containing a missed event
    double longestGap = 0.0;
};

Dist
analyze(const char *name, RunMetrics m)
{
    Dist d{name, std::move(m), 0, 0, 0, 0, 0.0};
    for (const auto &iv : d.metrics.intervals) {
        if (iv.backToBack) {
            ++d.backToBack;
        } else if (iv.length <= 4.0) {
            ++d.shortGaps;
        } else {
            ++d.longGaps;
            if (iv.containsMissed)
                ++d.longMissed;
        }
        if (iv.length > d.longestGap)
            d.longestGap = iv.length;
    }
    return d;
}

void
printHistogram(const Dist &d)
{
    std::printf("\n%s: %llu samples, %llu intervals\n", d.name,
                (unsigned long long)d.metrics.samples,
                (unsigned long long)(d.metrics.intervals.size()));
    sim::Histogram h_short(0.0, 4.0, 8);
    sim::Histogram h_long(4.0, 310.0, 10);
    for (const auto &iv : d.metrics.intervals) {
        if (iv.length < 4.0)
            h_short.add(iv.length);
        else
            h_long.add(iv.length);
    }
    std::uint64_t max_c = 1;
    for (std::size_t i = 0; i < h_short.numBins(); ++i)
        max_c = std::max(max_c, h_short.binCount(i));
    for (std::size_t i = 0; i < h_short.numBins(); ++i) {
        std::printf("  %5.1f-%5.1f s: %7llu %s\n", h_short.binLo(i),
                    h_short.binHi(i),
                    (unsigned long long)h_short.binCount(i),
                    bar(double(h_short.binCount(i)), double(max_c), 28)
                        .c_str());
    }
    std::uint64_t max_l = 1;
    for (std::size_t i = 0; i < h_long.numBins(); ++i)
        max_l = std::max(max_l, h_long.binCount(i));
    for (std::size_t i = 0; i < h_long.numBins(); ++i) {
        if (h_long.binCount(i) == 0)
            continue;
        std::printf("  %5.0f-%5.0f s: %7llu %s\n", h_long.binLo(i),
                    h_long.binHi(i),
                    (unsigned long long)h_long.binCount(i),
                    bar(double(h_long.binCount(i)), double(max_l), 28)
                        .c_str());
    }
}

} // namespace

int
main()
{
    setQuiet(true);
    banner("Figure 11",
           "distribution of times between samples (TempAlarm)");

    // 20 temperature events, as in the paper's experiment.
    sim::Rng rng(kSeed, 0x7a);
    auto sched =
        env::EventSchedule::poissonCount(rng, 20, kTaHorizon, 60.0);

    auto runs = runMetricsBatch(
        {[&sched] { return runTempAlarm(Policy::Fixed, sched, kSeed); },
         [&sched] { return runTempAlarm(Policy::CapyR, sched, kSeed); },
         [&sched] {
             return runTempAlarm(Policy::CapyP, sched, kSeed);
         }});
    Dist fixed = analyze("Fixed", std::move(runs[0]));
    Dist capy_r = analyze("Capy-R", std::move(runs[1]));
    Dist capy_p = analyze("Capy-P", std::move(runs[2]));

    sim::Table t({"system", "back-to-back (<1s)", "1-4 s gaps",
                  ">4 s gaps", ">4 s w/ missed event",
                  "longest gap (s)"});
    for (const Dist *d : {&fixed, &capy_r, &capy_p}) {
        t.addRow({d->name, sim::cell(d->backToBack),
                  sim::cell(d->shortGaps), sim::cell(d->longGaps),
                  sim::cell(d->longMissed),
                  sim::cell(d->longestGap, 4)});
    }
    t.print();

    printHistogram(fixed);
    printHistogram(capy_r);
    printHistogram(capy_p);
    std::printf("\n");

    shapeCheck(fixed.longGaps >= 10 && fixed.longestGap > 40.0,
               "Fixed: sampling interrupted by long large-bank "
               "recharges (paper: 110-250 s gaps)");
    shapeCheck(capy_p.shortGaps > 10 * fixed.shortGaps,
               "Capybara: most gaps are the small bank's short charge "
               "time (paper: 1.5-4 s)");
    shapeCheck(capy_p.longGaps <= 3 * 20,
               "Capybara: the large capacity is charged only ~as many "
               "times as there are alarm events");
    shapeCheck(fixed.longMissed > capy_p.longMissed,
               "most missed events hide inside Fixed's long gaps");
    shapeCheck(capy_r.shortGaps > 10 * fixed.shortGaps,
               "Capy-R also samples densely between alarms");
    return finish();
}
