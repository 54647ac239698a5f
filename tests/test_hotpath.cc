/**
 * @file
 * Property tests for the single-core hot-path caches and the solver
 * exp memos, and for the PowerSystem active node they feed. Each
 * cache is pure memoization, so each test compares cached answers
 * against a freshly recomputed oracle and requires *exact* equality
 * — a single ulp of drift would break the byte-identical sweep
 * guarantee. That the exp memos still serve their lookups is read
 * off sim::workCounts (the exps no memo served). TraceHarvester's
 * step lookup is held to the same exact oracle, and so are the two
 * thresholds that stand in for a libm call on the power step:
 * OrbitLight's cached orbit boundaries (for fmod) and PowerSystem's
 * full energy (for a divide and a sqrt). Each threshold oracle also
 * runs on a predicate shifted by one ulp, which it must catch.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <functional>
#include <iterator>
#include <limits>
#include <memory>
#include <vector>

#include "apps/boards.hh"
#include "env/light.hh"
#include "power/harvester.hh"
#include "power/parts.hh"
#include "power/power_system.hh"
#include "power/solver.hh"
#include "sim/random.hh"
#include "sim/work.hh"

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
    ps->setBankVoltageForTest(0, 1.5);
    ps->setBankVoltageForTest(1, 1.5);
    return ps;
}

/**
 * The composition invariant: the active node is the active banks as
 * one capacitor, and the charge target is the lowest of the design
 * target, @p ceiling and the active banks' ratings. Recomputed here
 * from the bank specs; exact equality.
 */
void
expectComposed(const PowerSystem &ps, double ceiling)
{
    double energy = 0.0, cap = 0.0, inv_esr = 0.0;
    double top = std::min(ps.systemSpec().maxStorageVoltage, ceiling);
    bool shorted = false;  // a zero-ESR bank makes the node's ESR 0
    for (int i = 0; i < ps.numBanks(); ++i) {
        if (!ps.bankActive(i))
            continue;
        const CapacitorSpec &spec = ps.bank(i).spec();
        energy += ps.bank(i).energy();
        cap += spec.capacitance;
        if (spec.esr > 0.0)
            inv_esr += 1.0 / spec.esr;
        else
            shorted = true;
        if (spec.ratedVoltage > 0.0)
            top = std::min(top, spec.ratedVoltage);
    }
    EXPECT_EQ(ps.activeEnergy(), energy);
    EXPECT_EQ(ps.activeCapacitance(), cap);
    EXPECT_EQ(ps.activeEsr(),
              shorted || inv_esr == 0.0 ? 0.0 : 1.0 / inv_esr);
    EXPECT_EQ(ps.topVoltage(), top);
}

/** The exps taken by the first asks of expectQueriesRepeat() and by
 *  their repeats. */
struct ExpTally
{
    std::uint64_t first = 0;
    std::uint64_t repeat = 0;
};

/** Every predictive query asked twice: the second walk is served by
 *  the exp memo and must match the first exactly. */
void
expectQueriesRepeat(const PowerSystem &ps, ExpTally &tally)
{
    auto twice = [&](auto query) {
        const std::uint64_t e0 = sim::workCounts.exps;
        const sim::Time first = query();
        const std::uint64_t e1 = sim::workCounts.exps;
        EXPECT_EQ(first, query());
        tally.first += e1 - e0;
        tally.repeat += sim::workCounts.exps - e1;
    };
    twice([&] { return ps.timeToFull(); });
    twice([&] { return ps.timeToBrownout(); });
    for (double v : {0.5, 1.8, ps.topVoltage(), ps.brownoutVoltageNow()}) {
        SCOPED_TRACE(testing::Message() << "target " << v);
        twice([&] { return ps.timeToVoltage(v); });
    }
}

} // namespace

TEST(HotPath, TraceMatchesOracleOnMonotoneQueries)
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
    }
}

TEST(HotPath, TraceMatchesOracleOnRandomJumps)
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

TEST(HotPath, TraceMatchesOracleAcrossLoopWraps)
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
    // Exactness under eviction pressure: 32 pairs thrash 16 slots.
    for (int round = 0; round < 16; ++round) {
        for (auto [dt, tau] : pairs)
            EXPECT_EQ(memo.expNegRatio(dt, tau), std::exp(-dt / tau));
    }
    // A pair repeated at once (back-to-back workloads of one duration
    // on one node) evaluates nothing the second time; pairs that
    // alternate are ExpMemoKeepsADutyCycleHot's case.
    for (auto [dt, tau] : pairs) {
        (void)memo.expNegRatio(dt, tau);
        const std::uint64_t exps = sim::workCounts.exps;
        EXPECT_EQ(memo.expNegRatio(dt, tau), std::exp(-dt / tau));
        EXPECT_EQ(sim::workCounts.exps, exps);
    }
}

TEST(HotPath, ExpMemoKeepsADutyCycleHot)
{
    // CapySat's duty cycle under its EDLC stacks' time constant
    // (3025 s): a 70 ms sample (as the clock's subtraction rounds
    // it), a 1 s sleep, a 10 s beacon interval and a 540 s
    // orbit-light segment. Round durations have no low mantissa bits
    // set, so a slot read from those bits alone puts all four in one
    // slot, and each lookup evicts the last.
    constexpr double kTau = 0x1.7a2p+11;
    const std::pair<double, double> cycle[] = {
        {0x1.1eb851eb8p-4, kTau}, {1.0, kTau}, {10.0, kTau},
        {540.0, kTau}};
    ExpCache memo;
    const std::uint64_t exps = sim::workCounts.exps;
    for (int round = 0; round < 1000; ++round) {
        for (auto [dt, tau] : cycle)
            ASSERT_EQ(memo.expNegRatio(dt, tau), std::exp(-dt / tau));
    }
    // Each pair is evaluated once, then served from its own slot.
    EXPECT_LE(sim::workCounts.exps - exps, std::size(cycle));
}

TEST(HotPath, WalkerAndDecayMemosBothHit)
{
    // Back-to-back workloads of one length on one node, with a
    // switched-out bank decaying alongside: each memo serves its own
    // (dt, tau) pair, and neither evicts the other's.
    PowerSystem ps(defaultSpec(),
                   std::make_unique<RegulatedSupply>(5e-3, 3.3));
    ps.addBank("small", parts::x5r100uF().parallel(4));
    ps.addSwitchedBank("big", parts::edlc7_5mF(), SwitchSpec{});
    ps.setBankVoltageForTest(0, 2.5);
    ps.setBankVoltageForTest(1, 2.0);
    ASSERT_FALSE(ps.bankActive(1));
    ps.setRailEnabled(true);
    constexpr double kDt = 1.0 / 1024.0;  // exact multiples
    const std::uint64_t exps = sim::workCounts.exps;
    for (int i = 1; i <= 100; ++i) {
        ASSERT_EQ(ps.runLoad(1e-3, i * kDt), kNever);
        ps.advanceTo(i * kDt);
    }
    // Each workload looks up one walker and one decay exp; without
    // either memo, 100 workloads would evaluate 100 or more.
    EXPECT_LE(sim::workCounts.exps - exps, 8u);
}

TEST(HotPath, NodeMatchesItsBanksAfterEveryControlCall)
{
    sim::Rng rng(kSeed, 5);
    auto ps = makeTraceSystem(rng);
    double ceiling = std::numeric_limits<double>::infinity();
    ExpTally tally;
    expectComposed(*ps, ceiling);
    expectQueriesRepeat(*ps, tally);

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
            if (rng.chance(0.5)) {
                ceiling = rng.uniform(1.9, 2.9);
                ps->setChargeCeiling(ceiling);
            } else {
                ceiling = std::numeric_limits<double>::infinity();
                ps->clearChargeCeiling();
            }
            break;
        case 6:
            if (ps->railEnabled())
                ps->commandSwitch(1, rng.chance(0.5));
            break;
        }
        expectComposed(*ps, ceiling);
        expectQueriesRepeat(*ps, tally);
    }
    // The exp memo served repeated walks.
    EXPECT_LT(tally.repeat, tally.first);
}

namespace
{

/** @p n doubles each side of @p x, and @p x, in increasing order. */
std::vector<double>
ulpsAround(double x, int n)
{
    for (int i = 0; i < n; ++i)
        x = std::nextafter(x, -std::numeric_limits<double>::infinity());
    std::vector<double> xs;
    for (int i = 0; i <= 2 * n; ++i) {
        xs.push_back(x);
        x = std::nextafter(x, std::numeric_limits<double>::infinity());
    }
    return xs;
}

/**
 * The doubles within 64 ulps of each orbit start and each sunset of
 * orbits 0-2000 on which @p sunlit disagrees with the definition,
 * std::fmod(t, P) < P - E. Each neighbourhood is swept up and then
 * down, so a cached orbit is entered from both sides.
 */
int
orbitMismatches(const env::OrbitLight::Spec &spec,
                const std::function<bool(double)> &sunlit)
{
    const double period = spec.orbitPeriod;
    const double lit = period - spec.eclipseDuration;
    int bad = 0;
    auto check = [&](double t) {
        bad += sunlit(t) != (std::fmod(t, period) < lit);
    };
    for (int k = 0; k <= 2000; ++k) {
        for (double edge : {k * period, k * period + lit}) {
            const std::vector<double> ts = ulpsAround(edge, 64);
            for (double t : ts)
                check(t);
            for (auto it = ts.rbegin(); it != ts.rend(); ++it)
                check(*it);
        }
    }
    return bad;
}

const env::OrbitLight::Spec kOrbitSpecs[] = {
    {},                // 5550 s, 2160 s eclipse: CapySat's orbit
    {5550.3, 2160.7},  // boundaries that are not integers
};

} // namespace

TEST(HotPath, OrbitLightMatchesFmodAtEveryBoundary)
{
    for (const env::OrbitLight::Spec &spec : kOrbitSpecs) {
        SCOPED_TRACE(testing::Message() << "period " << spec.orbitPeriod);
        const env::OrbitLight orbit(spec);
        const auto light = orbit.illumination();
        EXPECT_EQ(orbitMismatches(spec,
                                  [&](double t) { return orbit.sunlit(t); }),
                  0);
        EXPECT_EQ(orbitMismatches(spec,
                                  [&](double t) { return light(t) == 1.0; }),
                  0);
        // Negative control: a light whose sunset (and sunrise) comes
        // one ulp late must be caught.
        const env::OrbitLight late(spec);
        EXPECT_GT(orbitMismatches(spec,
                                  [&](double t) {
                                      return late.sunlit(std::nextafter(
                                          t, -std::numeric_limits<
                                                 double>::infinity()));
                                  }),
                  0);
    }
}

TEST(HotPath, OrbitLightMatchesFmodOnRandomJumps)
{
    sim::Rng rng(kSeed, 6);
    for (const env::OrbitLight::Spec &spec : kOrbitSpecs) {
        const env::OrbitLight orbit(spec);
        const double period = spec.orbitPeriod;
        const double lit = period - spec.eclipseDuration;
        int bad = 0;
        for (int i = 0; i < 100000; ++i) {
            // Any time in orbits 0-2000, forward or back from the last.
            const double t = rng.uniform(0.0, 2001.0 * period);
            bad += orbit.sunlit(t) != (std::fmod(t, period) < lit);
        }
        EXPECT_EQ(bad, 0) << "period " << period;
    }
}

namespace
{

/** PowerSystem's fullness tolerance: full from top - kVTol up. */
constexpr double kVTol = 1e-6;

/**
 * Calls @p visit on every storage node the paper's boards form: each
 * app board under each policy as built, then with its big bank
 * closed, then under the pre-charge ceiling; and CapySat's two EDLC
 * stacks.
 */
void
forEachBoardNode(const std::function<void(PowerSystem &)> &visit)
{
    using apps::AppBoard;
    for (AppBoard app : {AppBoard::TempAlarm, AppBoard::GestureFast,
                         AppBoard::GestureCompact, AppBoard::CorrSense}) {
        for (core::Policy policy : {core::Policy::Fixed,
                                    core::Policy::CapyR,
                                    core::Policy::CapyP}) {
            sim::Simulator sim;
            apps::Board board = apps::makeBoard(sim, app, policy);
            PowerSystem &ps = *board.ps;
            visit(ps);
            if (board.bigBank < 0)
                continue;
            ps.setRailEnabled(true);
            ps.commandSwitch(board.bigBank, true);
            visit(ps);
            ps.setChargeCeiling(ps.systemSpec().maxStorageVoltage -
                                ps.systemSpec().prechargePenaltyVoltage);
            visit(ps);
        }
    }
    for (int caps : {3, 8}) {
        PowerSystem ps(PowerSystem::Spec{},
                       std::make_unique<RegulatedSupply>(5e-3, 3.3));
        ps.addBank("sat", parts::cph3225a().parallel(caps));
        visit(ps);
    }
}

/** The energies within 64 ulps of @p threshold on which `e >=
 *  threshold` disagrees with the voltage comparison it replaces. */
int
fullMismatches(double threshold, double capacitance, double top)
{
    int bad = 0;
    for (double e : ulpsAround(threshold, 64))
        bad += (e >= threshold) !=
               (std::sqrt(2.0 * e / capacitance) >= top - kVTol);
    return bad;
}

} // namespace

TEST(HotPath, FullEnergyMatchesTheVoltageComparison)
{
    int nodes = 0;
    forEachBoardNode([&](PowerSystem &ps) {
        ++nodes;
        const double c = ps.activeCapacitance();
        const double top = ps.topVoltage();
        SCOPED_TRACE(testing::Message() << "C " << c << " top " << top);
        const double th = energyReaching(top - kVTol, c);
        EXPECT_EQ(fullMismatches(th, c, top), 0);
        // Negative controls: a threshold one ulp low, or high.
        EXPECT_GT(fullMismatches(std::nextafter(th, 0.0), c, top), 0);
        EXPECT_GT(fullMismatches(std::nextafter(th, 1.0), c, top), 0);
    });
    EXPECT_EQ(nodes, 4 + 2 * 4 * 3 + 2);
}

TEST(HotPath, IsFullMatchesTheVoltageComparison)
{
    // The system's own threshold, reached through bank presets: the
    // active banks all at each voltage within 64 ulps of the
    // fullness line.
    forEachBoardNode([&](PowerSystem &ps) {
        SCOPED_TRACE(testing::Message() << "C " << ps.activeCapacitance()
                                        << " top " << ps.topVoltage());
        int full = 0, bad = 0;
        for (double v : ulpsAround(ps.topVoltage() - kVTol, 64)) {
            for (int i = 0; i < ps.numBanks(); ++i) {
                if (ps.bankActive(i))
                    ps.setBankVoltageForTest(i, v);
            }
            const bool direct =
                std::sqrt(2.0 * ps.activeEnergy() /
                          ps.activeCapacitance()) >=
                ps.topVoltage() - kVTol;
            full += direct;
            bad += ps.isFull() != direct;
        }
        EXPECT_EQ(bad, 0);
        EXPECT_GT(full, 0);
        EXPECT_LT(full, 129);
    });
}
