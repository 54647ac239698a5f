/**
 * @file
 * Property tests for the single-core hot-path caches: the harvester
 * query cursor, the PowerSystem active-node snapshot and charge
 * target, and the solver exp memo. Every cache is pure
 * memoization, so each test compares cached answers against a freshly
 * recomputed oracle and requires *exact* equality — a single ulp of
 * drift would break the byte-identical sweep guarantee.
 */

#include <gtest/gtest.h>

#include <cmath>
#include <memory>
#include <vector>

#include "power/harvester.hh"
#include "power/parts.hh"
#include "power/power_system.hh"
#include "power/solver.hh"
#include "sim/random.hh"

using namespace capy;
using namespace capy::power;

namespace
{

constexpr std::uint64_t kSeed = 0xca51;

std::vector<TraceHarvester::Sample>
randomTrace(sim::Rng &rng, std::size_t n)
{
    std::vector<TraceHarvester::Sample> t;
    t.reserve(n);
    double time = 0.0;
    for (std::size_t i = 0; i < n; ++i) {
        t.push_back({time, rng.uniform(0.0, 10e-3)});
        time += rng.uniform(0.1, 30.0);
    }
    return t;
}

/** Step-interpolation oracle, independent of TraceHarvester. */
double
oraclePower(const std::vector<TraceHarvester::Sample> &t, double span,
            bool looping, double at)
{
    double local = at;
    if (looping)
        local = std::fmod(at, span);
    else if (at >= span)
        return 0.0;
    double p = t.front().power;
    for (const auto &s : t) {
        if (s.time <= local)
            p = s.power;
        else
            break;
    }
    return p;
}

PowerSystem::Spec
defaultSpec()
{
    PowerSystem::Spec s;
    s.maxStorageVoltage = 3.0;
    return s;
}

std::unique_ptr<PowerSystem>
makeTraceSystem(sim::Rng &rng)
{
    auto ps = std::make_unique<PowerSystem>(
        defaultSpec(),
        std::make_unique<TraceHarvester>(randomTrace(rng, 24), 3.3));
    ps->addBank("small", parts::x5r100uF().parallel(4));
    ps->addSwitchedBank("big", parts::edlc7_5mF(), SwitchSpec{});
    ps->bankForTest(0).setVoltage(1.5);
    ps->bankForTest(1).setVoltage(1.5);
    return ps;
}

/**
 * Compare every const query against the same query after a full cache
 * drop. Exact equality: the caches must be unobservable.
 */
void
expectQueriesMatchFresh(const PowerSystem &ps)
{
    double targets[4] = {0.5, 1.8, ps.topVoltage(),
                         ps.brownoutVoltageNow()};

    double v_c = ps.storageVoltage();
    double e_c = ps.activeEnergy();
    double c_c = ps.activeCapacitance();
    double r_c = ps.activeEsr();
    bool full_c = ps.isFull();
    sim::Time tf_c = ps.timeToFull();
    sim::Time tb_c = ps.timeToBrownout();
    sim::Time tv_c[4];
    for (int i = 0; i < 4; ++i)
        tv_c[i] = ps.timeToVoltage(targets[i]);

    ps.invalidateCachesForTest();

    EXPECT_EQ(v_c, ps.storageVoltage());
    EXPECT_EQ(e_c, ps.activeEnergy());
    EXPECT_EQ(c_c, ps.activeCapacitance());
    EXPECT_EQ(r_c, ps.activeEsr());
    EXPECT_EQ(full_c, ps.isFull());
    EXPECT_EQ(tf_c, ps.timeToFull());
    EXPECT_EQ(tb_c, ps.timeToBrownout());
    for (int i = 0; i < 4; ++i) {
        ps.invalidateCachesForTest();
        EXPECT_EQ(tv_c[i], ps.timeToVoltage(targets[i]))
            << "target " << targets[i];
    }
}

} // namespace

TEST(HotPath, CursorMatchesOracleOnMonotoneQueries)
{
    sim::Rng rng(kSeed, 1);
    for (int round = 0; round < 4; ++round) {
        bool looping = (round % 2) == 0;
        auto samples = randomTrace(rng, 40);
        TraceHarvester h(samples, 3.3, looping);
        double t = 0.0;
        for (int i = 0; i < 2000; ++i) {
            t += rng.uniform(0.0, 5.0);
            EXPECT_EQ(h.power(t), oraclePower(samples, h.traceSpan(),
                                              looping, t))
                << "t=" << t << " looping=" << looping;
            sim::Time nc = h.nextChange(t);
            if (std::isfinite(nc)) {
                EXPECT_GT(nc, t);
                // The sample index is constant up to the boundary.
                double just_before = std::nextafter(nc, t);
                if (just_before > t) {
                    EXPECT_EQ(h.power(just_before),
                              oraclePower(samples, h.traceSpan(),
                                          looping, just_before));
                }
            }
        }
        // Monotone queries should be served by the cursor, not the
        // binary search.
        EXPECT_GT(h.cursorHits(), h.cursorMisses());
    }
}

TEST(HotPath, CursorMatchesOracleOnRandomJumps)
{
    sim::Rng rng(kSeed, 2);
    for (int round = 0; round < 4; ++round) {
        bool looping = (round % 2) == 0;
        auto samples = randomTrace(rng, 40);
        TraceHarvester h(samples, 3.3, looping);
        double hi = h.traceSpan() * 3.0;
        for (int i = 0; i < 2000; ++i) {
            // Non-monotone: arbitrary forward and backward jumps.
            double t = rng.uniform(0.0, hi);
            EXPECT_EQ(h.power(t), oraclePower(samples, h.traceSpan(),
                                              looping, t))
                << "t=" << t << " looping=" << looping;
        }
    }
}

TEST(HotPath, CursorSurvivesLoopWrap)
{
    sim::Rng rng(kSeed, 3);
    auto samples = randomTrace(rng, 16);
    TraceHarvester h(samples, 3.3, true);
    double span = h.traceSpan();
    // March straight through several loop iterations.
    for (double t = 0.0; t < span * 5.0; t += span / 64.0) {
        EXPECT_EQ(h.power(t), oraclePower(samples, span, true, t))
            << "t=" << t;
    }
}

/** Stepping from change to change through thousands of loop wraps,
 *  as advanceTo() splits its segments: every instant nextChange()
 *  returns reads the sample after the one active before it. */
TEST(HotPath, LoopedChangeInstantReadsTheNewSample)
{
    sim::Rng rng(kSeed, 8);
    auto samples = randomTrace(rng, 7);
    TraceHarvester h(samples, 3.3, true);
    double span = h.traceSpan();
    // Sample index oracle, independent of TraceHarvester.
    auto index = [&](double at) {
        double local = std::fmod(at, span);
        std::size_t i = 0;
        while (i + 1 < samples.size() && samples[i + 1].time <= local)
            ++i;
        return i;
    };
    sim::Time t = 0.0;
    for (int k = 0; k < 20000; ++k) {
        sim::Time nc = h.nextChange(t);
        ASSERT_GT(nc, t);
        std::size_t next = (index(t) + 1) % samples.size();
        ASSERT_EQ(index(nc), next)
            << "change " << k << " at " << nc << ", loop "
            << std::floor(nc / span);
        ASSERT_EQ(h.power(nc), samples[next].power);
        // Now and then query from inside a sample's step.
        t = rng.chance(0.2) ? t + (nc - t) * rng.uniform(0.0, 1.0) : nc;
    }
    EXPECT_GT(t, 2000.0 * span) << "the walk should wrap thousands "
                                   "of times";
}

TEST(HotPath, ExpMemoIsExact)
{
    sim::Rng rng(kSeed, 4);
    ExpCache memo;
    std::vector<std::pair<double, double>> pairs;
    for (int i = 0; i < 32; ++i)
        pairs.emplace_back(rng.uniform(1e-6, 1e4),
                           rng.uniform(1e-3, 1e5));
    // Exactness under eviction pressure: 32 pairs thrash 4 slots.
    for (int round = 0; round < 16; ++round) {
        for (auto [dt, tau] : pairs)
            EXPECT_EQ(memo.expNegRatio(dt, tau), std::exp(-dt / tau));
    }
    // The memo's target access pattern is immediate repetition of one
    // pair (back-to-back workloads of one duration on one node).
    for (auto [dt, tau] : pairs) {
        std::uint64_t h = memo.hits();
        (void)memo.expNegRatio(dt, tau);
        EXPECT_EQ(memo.expNegRatio(dt, tau), std::exp(-dt / tau));
        EXPECT_GE(memo.hits(), h + 1);
    }
}

TEST(HotPath, CachedQueriesMatchFreshOracleAfterEveryControlCall)
{
    sim::Rng rng(kSeed, 5);
    auto ps = makeTraceSystem(rng);
    expectQueriesMatchFresh(*ps);

    sim::Time now = 0.0;
    for (int step = 0; step < 120; ++step) {
        switch (rng.uniformInt(0, 6)) {
        case 0:
        case 1:
        case 2: {
            now += rng.uniform(0.0, 20.0);
            ps->advanceTo(now);
            break;
        }
        case 3:
            ps->setRailLoad(ps->railEnabled()
                                ? rng.uniform(0.0, 5e-3)
                                : 0.0);
            break;
        case 4:
            ps->setRailEnabled(!ps->railEnabled());
            break;
        case 5:
            if (rng.chance(0.5))
                ps->setChargeCeiling(rng.uniform(1.9, 2.9));
            else
                ps->clearChargeCeiling();
            break;
        case 6:
            if (ps->railEnabled())
                ps->commandSwitch(1, rng.chance(0.5));
            break;
        }
        expectQueriesMatchFresh(*ps);
    }
    // Every query above is asked again after the cache drop and walks
    // the same phases, so the memo must hit.
    EXPECT_GT(ps->cacheStats().expHits, 0u);
}

TEST(HotPath, AdvanceUsesCachedSnapshotBetweenQueries)
{
    sim::Rng rng(kSeed, 7);
    auto ps = makeTraceSystem(rng);
    for (int i = 0; i < 100; ++i) {
        ps->advanceTo(double(i) * 0.5);
        (void)ps->storageVoltage();
        (void)ps->isFull();
    }
    auto stats = ps->cacheStats();
    EXPECT_GT(stats.nodeHits, stats.nodeMisses)
        << "query-heavy usage should mostly hit the node cache";
}
