/**
 * @file
 * Tests for the environment layer: event schedules, the pendulum and
 * thermal rigs, light sources, and the detection scoreboard.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstdint>
#include <limits>
#include <string>
#include <vector>

#include "env/events.hh"
#include "env/light.hh"
#include "env/pendulum.hh"
#include "env/scoring.hh"
#include "env/thermal.hh"
#include "sim/random.hh"
#include "sim/work.hh"

using namespace capy;
using namespace capy::env;

TEST(EventSchedule, SortsAndIdsEvents)
{
    EventSchedule s({5.0, 1.0, 3.0});
    ASSERT_EQ(s.size(), 3u);
    EXPECT_DOUBLE_EQ(s.at(0).time, 1.0);
    EXPECT_DOUBLE_EQ(s.at(2).time, 5.0);
    EXPECT_EQ(s.at(1).id, 1);
    EXPECT_DOUBLE_EQ(s.lastTime(), 5.0);
}

TEST(EventSchedule, PoissonCountExact)
{
    sim::Rng rng(5);
    EventSchedule s = EventSchedule::poissonCount(rng, 50, 7200.0);
    EXPECT_EQ(s.size(), 50u);
    EXPECT_LT(s.lastTime(), 7200.0);
    EXPECT_GT(s.at(0).time, 0.0);
}

TEST(EventSchedule, SeededFactoriesMatchExplicitRng)
{
    // Worker-side generation contract: a (seed, stream) factory call
    // reproduces exactly what a caller-thread Rng would have drawn.
    sim::Rng rng(42, 7);
    EventSchedule a =
        EventSchedule::poissonCount(rng, 50, 7200.0, 60.0);
    EventSchedule b =
        EventSchedule::poissonCountSeeded(42, 7, 50, 7200.0, 60.0);
    ASSERT_EQ(a.size(), b.size());
    for (std::size_t i = 0; i < a.size(); ++i)
        EXPECT_DOUBLE_EQ(a.at(i).time, b.at(i).time);

    sim::Rng rng2(9, 1);
    EventSchedule c = EventSchedule::poisson(rng2, 30.0, 600.0);
    EventSchedule d =
        EventSchedule::poissonSeeded(9, 1, 30.0, 600.0);
    ASSERT_EQ(c.size(), d.size());
    for (std::size_t i = 0; i < c.size(); ++i)
        EXPECT_DOUBLE_EQ(c.at(i).time, d.at(i).time);
}

TEST(EventSchedule, SeededFactoriesArePureFunctionsOfSeed)
{
    EventSchedule a =
        EventSchedule::poissonCountSeeded(1, 2, 20, 600.0);
    EventSchedule b =
        EventSchedule::poissonCountSeeded(1, 2, 20, 600.0);
    ASSERT_EQ(a.size(), b.size());
    for (std::size_t i = 0; i < a.size(); ++i)
        EXPECT_DOUBLE_EQ(a.at(i).time, b.at(i).time);

    EventSchedule other =
        EventSchedule::poissonCountSeeded(3, 2, 20, 600.0);
    bool differs = false;
    for (std::size_t i = 0; i < other.size(); ++i)
        differs |= other.at(i).time != a.at(i).time;
    EXPECT_TRUE(differs);
}

TEST(EventSchedule, EventCoveringWindows)
{
    EventSchedule s({10.0, 20.0});
    // Window [9.8, 10.2) overlaps event 0's span [10, 10.6).
    EXPECT_EQ(s.eventCovering(9.8, 0.4, 0.6), 0);
    // Instantaneous query inside the span.
    EXPECT_EQ(s.eventCovering(10.3, 0.0, 0.6), 0);
    // After the span ends.
    EXPECT_EQ(s.eventCovering(10.7, 0.1, 0.6), -1);
    EXPECT_EQ(s.eventCovering(19.99, 0.1, 0.6), 1);
    EXPECT_EQ(s.eventCovering(5.0, 1.0, 0.6), -1);
}

TEST(EventSchedule, EventsBetween)
{
    EventSchedule s({10.0, 20.0, 30.0});
    auto ids = s.eventsBetween(15.0, 35.0);
    EXPECT_EQ(ids, (std::vector<int>{1, 2}));
    EXPECT_TRUE(s.eventsBetween(31.0, 40.0).empty());
}

namespace
{

/** Linear-scan reference for EventSchedule::eventCovering. */
int
refEventCovering(const EventSchedule &s, sim::Time t, double dur,
                 double span)
{
    for (const EnvEvent &e : s.events()) {
        if (e.time >= t + dur)
            break;
        if (t < e.time + span && e.time < t + dur)
            return e.id;
    }
    return -1;
}

/** Linear-scan reference for EventSchedule::eventsBetween. */
std::vector<int>
refEventsBetween(const EventSchedule &s, sim::Time t0, sim::Time t1)
{
    std::vector<int> out;
    for (const EnvEvent &e : s.events())
        if (e.time > t0 && e.time < t1)
            out.push_back(e.id);
    return out;
}

/**
 * @p n event times on a 0.25 s grid over [10, 60): dyadic values, so
 * time + span and t + dur are exact and boundary ties really tie, and
 * a coarse grid, so duplicate times are common.
 */
EventSchedule
gridSchedule(sim::Rng &rng, std::size_t n)
{
    std::vector<sim::Time> times;
    for (std::size_t i = 0; i < n; ++i)
        times.push_back(10.0 + 0.25 * double(rng.uniformInt(0, 199)));
    return EventSchedule(std::move(times));
}

} // namespace

TEST(EventSchedule, LookupsMatchLinearScans)
{
    const double spans[] = {0.0, 0.25, 1.0, 2.5, 30.0};
    const double durs[] = {0.0, 0.25, 1.0, 7.5};
    for (std::uint64_t seed = 1; seed <= 40; ++seed) {
        sim::Rng rng(seed);
        // Sizes 0..39: includes the empty schedule.
        EventSchedule s = gridSchedule(rng, seed - 1);
        // Query instants: every boundary each event defines, plus
        // random on- and off-grid points around and outside it.
        std::vector<sim::Time> ts = {0.0, 5.0, 100.0};
        for (const EnvEvent &e : s.events())
            for (double span : spans)
                for (double dur : durs) {
                    ts.push_back(e.time + span);  // t == time + span
                    ts.push_back(e.time - dur);   // time == t + dur
                }
        for (int i = 0; i < 200; ++i) {
            ts.push_back(0.25 * double(rng.uniformInt(0, 280)));
            ts.push_back(rng.uniform(0.0, 70.0));
        }
        for (sim::Time t : ts) {
            for (double span : spans)
                for (double dur : durs)
                    ASSERT_EQ(s.eventCovering(t, dur, span),
                              refEventCovering(s, t, dur, span))
                        << "seed " << seed << " t=" << t
                        << " dur=" << dur << " span=" << span;
            for (double len : {0.0, 0.25, 2.0, 80.0})
                ASSERT_EQ(s.eventsBetween(t, t + len),
                          refEventsBetween(s, t, t + len))
                    << "seed " << seed << " t=" << t
                    << " len=" << len;
        }

        // The cursor form, over the same instants (boundary ties
        // included) in the orders a run makes them: forward; forward
        // with each query followed by one up to a span earlier, on
        // the grid so ties still tie (a gesture window opening before
        // the last sample); and random jumps.
        std::vector<sim::Time> forward = ts;
        std::sort(forward.begin(), forward.end());
        std::vector<sim::Time> jumps = ts;
        for (std::size_t i = jumps.size(); i > 1; --i)
            std::swap(jumps[i - 1], jumps[rng.uniformInt(0, i - 1)]);
        for (double span : spans) {
            std::vector<sim::Time> jittered;
            for (sim::Time t : forward) {
                jittered.push_back(t);
                auto steps = std::uint64_t(span / 0.25);
                if (steps > 0)
                    jittered.push_back(
                        t - 0.25 * double(rng.uniformInt(0, steps - 1)));
            }
            for (const auto *seq : {&forward, &jittered, &jumps}) {
                for (double dur : durs) {
                    EventSchedule::Cursor cursor;
                    for (sim::Time t : *seq)
                        ASSERT_EQ(s.eventCovering(t, dur, span, cursor),
                                  refEventCovering(s, t, dur, span))
                            << "seed " << seed << " order "
                            << (seq == &forward    ? "forward"
                                : seq == &jittered ? "jittered"
                                                   : "jumps")
                            << " t=" << t << " dur=" << dur
                            << " span=" << span;
                }
            }
        }
    }
}

TEST(EventSchedule, CursorSeeksOnlyOnJumps)
{
    // 100 events 1 s apart, each spanning 0.6 s.
    std::vector<sim::Time> times;
    for (int i = 0; i < 100; ++i)
        times.push_back(double(i));
    EventSchedule s(std::move(times));
    EventSchedule::Cursor cursor;
    auto seeks = [] { return sim::workCounts.seeks; };

    std::uint64_t before = seeks();
    for (int i = 0; i < 398; ++i)  // up to 99.25 s
        s.eventCovering(0.25 * i, 0.0, 0.6, cursor);
    EXPECT_EQ(seeks(), before) << "monotone queries scan forward";

    // Back within the span of the cursor's event: still no seek.
    EXPECT_EQ(s.eventCovering(99.5, 0.0, 0.6, cursor), 99);
    EXPECT_EQ(s.eventCovering(99.1, 0.0, 0.6, cursor), 99);
    EXPECT_EQ(seeks(), before);
    // Back past an expired event, then far ahead: one seek each.
    EXPECT_EQ(s.eventCovering(10.2, 0.0, 0.6, cursor), 10);
    EXPECT_EQ(seeks(), before + 1);
    EXPECT_EQ(s.eventCovering(60.3, 0.0, 0.6, cursor), 60);
    EXPECT_EQ(seeks(), before + 2);
}

TEST(Pendulum, ProximityDuringSwingOnly)
{
    EventSchedule s({100.0});
    Pendulum p(s);
    EXPECT_FALSE(p.objectPresent(99.9));
    EXPECT_TRUE(p.objectPresent(100.1));
    EXPECT_TRUE(p.objectPresent(100.5));
    EXPECT_FALSE(p.objectPresent(100.7));
    EXPECT_EQ(p.eventAt(100.3), 0);
    EXPECT_EQ(p.eventAt(99.0), -1);
}

TEST(Pendulum, FieldElevatedDuringSwing)
{
    EventSchedule s({50.0});
    Pendulum p(s);
    EXPECT_GT(p.fieldStrength(50.2), 0.5);
    EXPECT_LT(p.fieldStrength(40.0), 0.2);
}

TEST(Pendulum, EarlyWindowDecodes)
{
    EventSchedule s({100.0});
    Pendulum::Spec spec;
    spec.pDecodeFail = 0.0;
    spec.pMisclassify = 0.0;
    Pendulum p(s, spec);
    sim::Rng rng(1);
    int id = -2;
    auto r = p.senseGesture(100.05, 0.25, rng, &id);
    EXPECT_EQ(r, Pendulum::GestureResult::Decoded);
    EXPECT_EQ(id, 0);
}

TEST(Pendulum, LateWindowMisclassifies)
{
    EventSchedule s({100.0});
    Pendulum::Spec spec;
    spec.pDecodeFail = 0.0;
    spec.pMisclassify = 0.0;
    Pendulum p(s, spec);
    sim::Rng rng(1);
    int id = -2;
    auto r = p.senseGesture(100.4, 0.25, rng, &id);
    EXPECT_EQ(r, Pendulum::GestureResult::Misclassified);
    EXPECT_EQ(id, 0);
}

TEST(Pendulum, NoOverlapNoGesture)
{
    EventSchedule s({100.0});
    Pendulum p(s);
    sim::Rng rng(1);
    int id = -2;
    auto r = p.senseGesture(200.0, 0.25, rng, &id);
    EXPECT_EQ(r, Pendulum::GestureResult::NoGesture);
    EXPECT_EQ(id, -1);
}

TEST(Pendulum, InherentImperfectionRates)
{
    // With many events, the decode-failure and misclassification
    // rates should approximate the configured probabilities.
    std::vector<sim::Time> times;
    for (int i = 0; i < 2000; ++i)
        times.push_back(10.0 * i);
    EventSchedule s(times);
    Pendulum p(s);
    sim::Rng rng(77);
    int decoded = 0, mis = 0, none = 0;
    for (int i = 0; i < 2000; ++i) {
        auto r = p.senseGesture(10.0 * i + 0.05, 0.25, rng, nullptr);
        decoded += r == Pendulum::GestureResult::Decoded;
        mis += r == Pendulum::GestureResult::Misclassified;
        none += r == Pendulum::GestureResult::NoGesture;
    }
    EXPECT_NEAR(none / 2000.0, 0.05, 0.02);
    EXPECT_NEAR(mis / 2000.0, 0.03 * 0.95, 0.02);
    EXPECT_GT(decoded, 1800);
}

TEST(ThermalRig, InBandBetweenEvents)
{
    EventSchedule s({1000.0});
    ThermalRig rig(s);
    for (double t = 0.0; t < 900.0; t += 37.0) {
        EXPECT_FALSE(rig.outOfRange(t)) << "t=" << t;
        EXPECT_GT(rig.temperature(t), rig.spec().bandLo);
        EXPECT_LT(rig.temperature(t), rig.spec().bandHi);
    }
}

TEST(ThermalRig, ExcursionLeavesBand)
{
    EventSchedule s({1000.0});
    ThermalRig rig(s);
    // Mid-excursion: at the peak hold.
    double mid = 1000.0 + rig.spec().rampTime +
                 rig.spec().holdTime / 2.0;
    EXPECT_TRUE(rig.outOfRange(mid));
    EXPECT_NEAR(rig.temperature(mid), rig.spec().peakTemp, 1e-9);
    EXPECT_EQ(rig.alarmEventAt(mid), 0);
    // After the excursion.
    EXPECT_FALSE(rig.outOfRange(1000.0 + rig.excursionDuration() + 1));
}

TEST(ThermalRig, AlarmEventIsTheCoveringExcursionWhenOutOfBand)
{
    EventSchedule s({100.0, 110.0, 400.0});
    ThermalRig rig(s);
    for (double t = 0.0; t < 500.0; t += 0.125) {
        int covering = s.eventCovering(t, 0.0, rig.excursionDuration());
        EXPECT_EQ(rig.alarmEventAt(t), rig.outOfRange(t) ? covering : -1)
            << "t=" << t;
    }
}

TEST(ThermalRig, ReadsDoNotDependOnQueryOrder)
{
    // The rig keeps a schedule cursor and its last answer; a read in
    // any order, repeated or not, matches a fresh rig's.
    EventSchedule s({100.0, 110.0, 400.0});
    ThermalRig rig(s);
    sim::Rng rng(7);
    for (int i = 0; i < 2000; ++i) {
        double t = rng.chance(0.7) ? 0.125 * double(rng.uniformInt(0, 4000))
                                   : rng.uniform(0.0, 500.0);
        ThermalRig fresh(s);
        for (int rep = 0; rep < 2; ++rep) {
            ASSERT_EQ(rig.temperature(t), fresh.temperature(t)) << t;
            ASSERT_EQ(rig.alarmEventAt(t), fresh.alarmEventAt(t)) << t;
        }
    }
}

TEST(ThermalRig, OutOfRangeDurationConsistent)
{
    EventSchedule s({1000.0});
    ThermalRig rig(s);
    double dur = rig.outOfRangeDuration();
    EXPECT_GT(dur, rig.spec().holdTime);
    EXPECT_LT(dur, rig.excursionDuration());
    // Sampled check: count out-of-range time numerically.
    double counted = 0.0, dt = 0.01;
    for (double t = 995.0; t < 1035.0; t += dt)
        counted += rig.outOfRange(t) ? dt : 0.0;
    EXPECT_NEAR(counted, dur, 0.1);
}

TEST(Light, PwmHalogenConstantFraction)
{
    PwmHalogen h(0.42);
    auto f = h.illumination();
    EXPECT_DOUBLE_EQ(f(0.0), 0.42);
    EXPECT_DOUBLE_EQ(f(1e6), 0.42);
}

TEST(Light, OrbitSunlitAndEclipse)
{
    OrbitLight orbit;
    double lit = orbit.spec().orbitPeriod - orbit.spec().eclipseDuration;
    EXPECT_TRUE(orbit.sunlit(lit * 0.5));
    EXPECT_FALSE(orbit.sunlit(lit + 1.0));
    // Next orbit repeats.
    EXPECT_TRUE(orbit.sunlit(orbit.spec().orbitPeriod + lit * 0.5));
    auto f = orbit.illumination();
    EXPECT_DOUBLE_EQ(f(lit * 0.5), 1.0);
    EXPECT_DOUBLE_EQ(f(lit + 1.0), 0.0);
}

TEST(LightDeathTest, OrbitSpecMustDescribeAnOrbit)
{
    // A zero period made fmod(t, 0) NaN, so sunlit() read eclipse at
    // every instant.
    EXPECT_DEATH(OrbitLight(OrbitLight::Spec{0.0, -1.0}), "orbit period");
    EXPECT_DEATH(OrbitLight(OrbitLight::Spec{-5550.0, 0.0}),
                 "orbit period");
    EXPECT_DEATH(
        OrbitLight(OrbitLight::Spec{
            std::numeric_limits<double>::quiet_NaN(), 0.0}),
        "orbit period");
    EXPECT_DEATH(OrbitLight(OrbitLight::Spec{5550.0, -1.0}), "eclipse");
    EXPECT_DEATH(OrbitLight(OrbitLight::Spec{5550.0, 5550.0}), "eclipse");
    // No eclipse at all is an orbit.
    OrbitLight always_lit(OrbitLight::Spec{5550.0, 0.0});
    EXPECT_TRUE(always_lit.sunlit(5549.999));
    EXPECT_TRUE(always_lit.sunlit(5550.0));
}

TEST(Scoreboard, DefaultsToMissed)
{
    EventSchedule s({1.0, 2.0});
    Scoreboard sb(s);
    auto sum = sb.summarize();
    EXPECT_EQ(sum.total, 2u);
    EXPECT_EQ(sum.missed, 2u);
    EXPECT_DOUBLE_EQ(sum.fracCorrect, 0.0);
}

TEST(Scoreboard, MonotoneUpgrades)
{
    EventSchedule s({10.0});
    Scoreboard sb(s);
    sb.recordDetection(0);
    EXPECT_EQ(sb.outcome(0), Outcome::ProximityOnly);
    sb.recordMisclassified(0);
    EXPECT_EQ(sb.outcome(0), Outcome::Misclassified);
    sb.recordReport(0, 12.5);
    EXPECT_EQ(sb.outcome(0), Outcome::Correct);
    // Downgrades are ignored.
    sb.recordDetection(0);
    sb.recordMisclassified(0);
    EXPECT_EQ(sb.outcome(0), Outcome::Correct);
    auto sum = sb.summarize();
    EXPECT_EQ(sum.correct, 1u);
    EXPECT_NEAR(sum.latency.mean(), 2.5, 1e-12);
}

TEST(Scoreboard, InvalidIdsIgnored)
{
    EventSchedule s({10.0});
    Scoreboard sb(s);
    sb.recordDetection(-1);
    sb.recordReport(7, 1.0);
    EXPECT_EQ(sb.summarize().missed, 1u);
}

TEST(Scoreboard, SampleIntervalClassification)
{
    EventSchedule s({10.0, 100.0});
    Scoreboard sb(s);
    sb.recordSample(0.5);
    sb.recordSample(0.8);    // back-to-back
    sb.recordSample(50.0);   // contains event 0 (missed)
    sb.recordReport(1, 101.0);
    sb.recordSample(150.0);  // contains event 1 (correct)
    auto view = sb.sampleIntervals(1.0);
    std::vector<Scoreboard::Interval> ivs(view.begin(), view.end());
    ASSERT_EQ(ivs.size(), 3u);
    EXPECT_TRUE(ivs[0].backToBack);
    EXPECT_FALSE(ivs[1].backToBack);
    EXPECT_TRUE(ivs[1].containsMissed);
    EXPECT_FALSE(ivs[2].containsMissed);
}

namespace
{

/** The interval definition sampleIntervals() implements: each
 *  interval between consecutive samples @p ts asks eventsBetween()
 *  for its events. */
std::vector<Scoreboard::Interval>
refSampleIntervals(const Scoreboard &sb, const EventSchedule &s,
                   const std::vector<sim::Time> &ts, double threshold)
{
    std::vector<Scoreboard::Interval> out;
    for (std::size_t i = 1; i < ts.size(); ++i) {
        Scoreboard::Interval iv;
        iv.length = ts[i] - ts[i - 1];
        iv.backToBack = iv.length < threshold;
        iv.containsMissed = false;
        for (int id : s.eventsBetween(ts[i - 1], ts[i]))
            if (sb.outcome(id) == Outcome::Missed)
                iv.containsMissed = true;
        out.push_back(iv);
    }
    return out;
}

/** Record @p samples on @p sb, then check both sampleIntervals()
 *  overloads against refSampleIntervals() at several thresholds. */
void
expectIntervalsMatchScan(Scoreboard &sb, const EventSchedule &s,
                         const std::vector<sim::Time> &samples,
                         const std::string &label)
{
    for (sim::Time t : samples)
        sb.recordSample(t);
    ASSERT_EQ(sb.sampleCount(), samples.size()) << label;
    for (double threshold : {0.0, 0.3, 1.0}) {
        auto want = refSampleIntervals(sb, s, samples, threshold);
        auto got = sb.sampleIntervals(threshold);
        ASSERT_EQ(got.size(), want.size()) << label;
        if (!samples.empty()) {
            EXPECT_EQ(samples.size(), got.size() + 1) << label;
        }
        std::size_t i = 0;
        for (Scoreboard::Interval iv : got) {
            ASSERT_LT(i, want.size()) << label;
            EXPECT_EQ(iv.length, want[i].length)
                << label << " interval " << i;
            EXPECT_EQ(iv.backToBack, want[i].backToBack)
                << label << " interval " << i;
            EXPECT_EQ(iv.containsMissed, want[i].containsMissed)
                << label << " interval " << i;
            ++i;
        }
        EXPECT_EQ(i, want.size()) << label;
    }
    // The rvalue overload moves the log out; same intervals.
    auto want = refSampleIntervals(sb, s, samples, 1.0);
    auto moved = std::move(sb).sampleIntervals(1.0);
    std::vector<Scoreboard::Interval> got(moved.begin(), moved.end());
    ASSERT_EQ(got.size(), want.size()) << label;
    for (std::size_t i = 0; i < got.size(); ++i) {
        EXPECT_EQ(got[i].length, want[i].length) << label;
        EXPECT_EQ(got[i].containsMissed, want[i].containsMissed)
            << label;
    }
}

/** Random outcomes: a quarter reported, a quarter detected, the
 *  rest missed. */
void
scoreRandomly(sim::Rng &rng, Scoreboard &sb, const EventSchedule &s)
{
    for (const EnvEvent &e : s.events()) {
        double r = rng.uniform();
        if (r < 0.25)
            sb.recordReport(e.id, e.time + 1.0);
        else if (r < 0.5)
            sb.recordDetection(e.id);
    }
}

} // namespace

TEST(Scoreboard, SampleIntervalsMatchPerIntervalScan)
{
    for (std::uint64_t seed = 1; seed <= 60; ++seed) {
        sim::Rng rng(seed);
        // Seeds 1-5 have no events at all.
        EventSchedule s = gridSchedule(rng, seed <= 5 ? 0 : seed % 40);
        Scoreboard sb(s);
        scoreRandomly(rng, sb, s);
        // Samples from before the first event to after the last,
        // drawn from the event grid (so some land exactly on event
        // times) and off it, with repeats.
        std::vector<sim::Time> samples;
        std::size_t n = rng.uniformInt(0, 60);
        for (std::size_t i = 0; i < n; ++i) {
            double r = rng.uniform();
            if (r < 0.4 && !s.empty())
                samples.push_back(
                    s.at(rng.uniformInt(0, s.size() - 1)).time);
            else if (r < 0.7)
                samples.push_back(0.25 * double(rng.uniformInt(0, 280)));
            else
                samples.push_back(rng.uniform(0.0, 70.0));
            if (rng.chance(0.2))
                samples.push_back(samples.back());
        }
        std::sort(samples.begin(), samples.end());
        expectIntervalsMatchScan(sb, s, samples,
                                 "seed " + std::to_string(seed));
    }
}

namespace
{

/** Times built as the simulator builds a self-looping task's
 *  completions: each is the last plus the step, in double. */
std::vector<sim::Time>
stepped(sim::Time t0, std::size_t n, auto step_at)
{
    std::vector<sim::Time> ts;
    sim::Time t = t0;
    for (std::size_t i = 0; i < n; ++i) {
        ts.push_back(t);
        t += step_at(i);
    }
    return ts;
}

/** A SampleLog of @p ts yields @p ts, bit for bit, and the same
 *  intervals through a Scoreboard as a per-interval scan does. */
void
expectLogKeepsEveryTime(const std::vector<sim::Time> &ts,
                        const std::string &label)
{
    SampleLog log;
    for (sim::Time t : ts)
        log.push(t);
    ASSERT_EQ(log.size(), ts.size()) << label;
    EXPECT_EQ(log.empty(), ts.empty()) << label;
    if (!ts.empty()) {
        EXPECT_EQ(std::bit_cast<std::uint64_t>(log.back()),
                  std::bit_cast<std::uint64_t>(ts.back()))
            << label;
    }
    std::vector<std::uint64_t> want, got, copied;
    for (sim::Time t : ts)
        want.push_back(std::bit_cast<std::uint64_t>(t));
    for (sim::Time t : log)
        got.push_back(std::bit_cast<std::uint64_t>(t));
    SampleLog copy = log;
    for (auto it = copy.begin(); it != copy.end(); it++)
        copied.push_back(std::bit_cast<std::uint64_t>(*it));
    EXPECT_EQ(got, want) << label;
    EXPECT_EQ(copied, want) << label;

    sim::Rng rng(ts.size() + 1);
    EventSchedule s = gridSchedule(rng, 30);
    Scoreboard sb(s);
    scoreRandomly(rng, sb, s);
    expectIntervalsMatchScan(sb, s, ts, label);
}

} // namespace

TEST(SampleLog, EveryTimeComesBackBitForBit)
{
    expectLogKeepsEveryTime({}, "0 samples");
    expectLogKeepsEveryTime({3.5}, "1 sample");
    expectLogKeepsEveryTime({0.1, 0.7}, "2 samples");

    // A constant step across several powers of two: the sum's
    // rounding changes at each one, so the stored step may too.
    expectLogKeepsEveryTime(
        stepped(0.0, 1500, [](std::size_t) { return 0.1; }),
        "0.1 s step from 0 to 150 s");
    expectLogKeepsEveryTime(
        stepped(0.7, 3000, [](std::size_t) { return 1e-3; }),
        "1 ms step from 0.7 to 3.7 s");

    // Steps of 1.5 and 2.5 ulps at 1024 s: every sum is an exact
    // tie, rounded to even. From an odd start the first increment is
    // one ulp off the rest; from an even one they are all equal.
    const double odd = std::nextafter(1024.0, 2048.0);
    const double ulp = odd - 1024.0;
    for (double t0 : {1024.0, odd}) {
        for (double k : {1.5, 2.5}) {
            expectLogKeepsEveryTime(
                stepped(t0, 200, [&](std::size_t) { return k * ulp; }),
                std::to_string(k) + "-ulp tie step from " +
                    (t0 == odd ? "an odd" : "an even") + " start");
        }
    }

    // Equal consecutive times, and a zero of either sign.
    expectLogKeepsEveryTime({1.0, 1.0, 1.0, 2.0, 2.0, 3.0, 3.0, 3.0, 3.0},
                            "repeated times");
    expectLogKeepsEveryTime({0.0, -0.0, -0.0, 0.0, 0.0, 0.5},
                            "signed zeros");

    // Steps that change every k samples, some by one ulp.
    const double step = 0.1;
    const double steps[] = {step, std::nextafter(step, 1.0), 0.3,
                            std::nextafter(step, 0.0)};
    for (std::size_t k : {1, 2, 3, 7}) {
        expectLogKeepsEveryTime(
            stepped(5.0, 400,
                    [&](std::size_t i) { return steps[(i / k) % 4]; }),
            "step changes every " + std::to_string(k));
    }

    // No two equal steps in a row (the log's worst case).
    expectLogKeepsEveryTime(
        stepped(0.0, 600,
                [](std::size_t i) { return 0.01 * double(1 + i % 3); }),
        "cycling steps");
    sim::Rng rng(7);
    expectLogKeepsEveryTime(
        stepped(0.0, 600, [&](std::size_t) { return rng.uniform(); }),
        "random steps");
}

TEST(Scoreboard, OutcomeNames)
{
    EXPECT_STREQ(outcomeName(Outcome::Correct), "correct");
    EXPECT_STREQ(outcomeName(Outcome::Missed), "missed");
    EXPECT_STREQ(outcomeName(Outcome::ProximityOnly), "proximity-only");
    EXPECT_STREQ(outcomeName(Outcome::Misclassified), "misclassified");
}
