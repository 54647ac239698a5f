/**
 * @file
 * The analytic power walk against brute-force reference boards
 * (reference_board.hh). Seeded random PowerSystem boards and
 * FederatedStorage cascades are advanced and queried side by side
 * with fixed-step twins that share only the component formulas with
 * them: voltages agree within 1 mV, brown-out, full and runLoad
 * instants within 10 reference steps, charge completions exactly and
 * the energy ledger within 0.1% of its flows. Some boards run under a
 * charge ceiling, some of them starting above it, and some take a
 * supply collapse.
 *
 * Run alone with `ctest -L oracle`.
 */

#include <gtest/gtest.h>

#include <cmath>
#include <memory>
#include <string>
#include <vector>

#include "power/federated.hh"
#include "power/parts.hh"
#include "power/power_system.hh"
#include "reference_board.hh"
#include "sim/random.hh"

using namespace capy;
using namespace capy::power;

namespace
{

constexpr double kVoltTol = 1e-3;
constexpr double kInstantTol = 10 * oracle::kStep;

/** A constant supply or a non-looping step trace, 0-10 mW at 3.3 V. */
std::unique_ptr<Harvester>
randomSupply(sim::Rng &rng, double p_h)
{
    if (rng.chance(0.5))
        return std::make_unique<RegulatedSupply>(p_h, 3.3);
    std::vector<TraceHarvester::Sample> steps;
    sim::Time t = 0.0;
    for (int k = 0; k < 6; ++k) {
        steps.push_back({t, rng.uniform(0.0, 10e-3)});
        t += rng.uniform(5.0, 60.0);
    }
    return std::make_unique<TraceHarvester>(std::move(steps), 3.3, false);
}

CapacitorSpec
randomCap(sim::Rng &rng)
{
    CapacitorSpec caps[] = {
        parts::x5r100uF().parallel(rng.uniformInt(2, 8)),
        parts::tant1000uF(), parts::edlc7_5mF(),
        parts::cph3225a().parallel(rng.uniformInt(1, 3))};
    return caps[rng.uniformInt(0, 3)];
}

/** A PowerSystem and its reference twin on the same harvester. */
struct Twin
{
    std::unique_ptr<PowerSystem> ps;
    std::unique_ptr<oracle::ReferenceBoard> ref;

    void
    setRailEnabled(bool on)
    {
        ps->setRailEnabled(on);
        ref->setRailEnabled(on);
    }

    void
    setRailLoad(double watts)
    {
        ps->setRailLoad(watts);
        ref->setRailLoad(watts);
    }

    void
    advanceTo(sim::Time t)
    {
        ps->advanceTo(t);
        ref->advanceTo(t);
    }

    void
    collapseToBrownout()
    {
        double dumped = ps->collapseToBrownout();
        EXPECT_NEAR(dumped, ref->collapseToBrownout(),
                    1e-6 * dumped + 1e-12);
    }
};

/**
 * A random 1-3 bank board: bank 0 hard-wired, the others hard-wired or
 * behind a latch switch in a random commanded state. A third of the
 * boards start near the 1.0 V cold-start threshold with the rail on,
 * below its brown-out floor, on a constant supply; half of those draw
 * between the converter's output above the threshold and the bypass
 * diode's below it, so the node parks on the threshold.
 */
Twin
randomTwin(sim::Rng &rng)
{
    double p_h = rng.uniform(0.2e-3, 10e-3);
    bool breakpoint = rng.chance(1.0 / 3.0);
    PowerSystem::Spec spec;
    Twin tw;
    tw.ps = std::make_unique<PowerSystem>(
        spec, breakpoint ? std::make_unique<RegulatedSupply>(p_h, 3.3)
                         : randomSupply(rng, p_h));
    tw.ref = std::make_unique<oracle::ReferenceBoard>(
        spec, tw.ps->harvesterRef());

    int n = static_cast<int>(rng.uniformInt(1, 3));
    for (int i = 0; i < n; ++i) {
        CapacitorSpec cap = randomCap(rng);
        std::string name = "b" + std::to_string(i);
        if (i > 0 && rng.chance(0.6)) {
            SwitchSpec sw;
            sw.kind = rng.chance(0.5) ? SwitchKind::NormallyOpen
                                      : SwitchKind::NormallyClosed;
            tw.ps->addSwitchedBank(name, cap, sw);
            tw.ref->addSwitchedBank(cap, sw);
        } else {
            tw.ps->addBank(name, cap);
            tw.ref->addBank(cap);
        }
    }

    // The active banks share one voltage; an open bank has its own.
    double v = breakpoint ? rng.uniform(0.9, 1.1) : rng.uniform(0.0, 2.9);
    for (int i = 0; i < n; ++i) {
        double vi = tw.ps->bankActive(i) ? v : rng.uniform(0.0, 2.9);
        tw.ps->setBankVoltageForTest(i, vi);
        tw.ref->setBankVoltage(i, vi);
    }
    tw.setRailEnabled(true);
    for (int i = 0; i < n; ++i) {
        if (tw.ps->bankSwitch(i) && rng.chance(0.5)) {
            bool closed = !tw.ps->bankActive(i);
            tw.ps->commandSwitch(i, closed);
            tw.ref->commandSwitch(i, closed);
        }
    }

    if (breakpoint) {
        double draw = p_h * (rng.chance(0.5) ? rng.uniform(0.8, 0.9)
                                             : rng.uniform(0.0, 1.2));
        double load = (draw - spec.systemQuiescentPower -
                       spec.output.quiescentPower) *
                      spec.output.efficiency;
        tw.setRailLoad(std::max(0.0, load));
    } else if (rng.chance(0.5)) {
        tw.setRailLoad(rng.uniform(0.0, 10e-3));
    } else {
        tw.setRailEnabled(false);
    }
    return tw;
}

/** A seed's charge ceiling and supply collapse. */
struct Upsets
{
    std::string what;       ///< for failure messages
    bool above = false;     ///< the board starts above its ceiling
    bool collapse = false;  ///< the run takes a supply collapse
    double when = 0.0;      ///< where in the run, as a fraction
};

/**
 * Draw @p seed's upsets from a stream of their own, so the boards of
 * the other seeds stay as they were, and apply the ceiling to @p tw.
 * A third of the seeds get a ceiling, half of those below the start
 * voltage (the active banks are raised above it first); a quarter get
 * a collapse.
 */
Upsets
drawUpsets(Twin &tw, int seed)
{
    sim::Rng rng(std::uint64_t(seed), 0x0AC4);
    Upsets u;
    if (rng.chance(1.0 / 3.0)) {
        double ceiling;
        if (rng.chance(0.5)) {
            ceiling = rng.uniform(1.7, 2.6);
            double v = rng.uniform(ceiling + 0.05, 2.95);
            for (int i = 0; i < tw.ps->numBanks(); ++i) {
                if (tw.ps->bankActive(i)) {
                    tw.ps->setBankVoltageForTest(i, v);
                    tw.ref->setBankVoltage(i, v);
                }
            }
            u.above = true;
            u.what = ", ceiling below the start";
        } else {
            ceiling = rng.uniform(
                std::max(tw.ps->storageVoltage(), 1.7) + 0.02, 2.98);
            u.what = ", ceiling";
        }
        tw.ps->setChargeCeiling(ceiling);
        tw.ref->setChargeCeiling(ceiling);
        u.what += " " + std::to_string(ceiling) + " V";
    }
    u.collapse = rng.chance(0.25);
    u.when = rng.uniform(0.0, 1.0);
    if (u.collapse)
        u.what += ", collapse";
    return u;
}

/** The walker's instant @p walk (relative, kNever for none) against
 *  the reference's @p ref (kNone when it found none within
 *  @p horizon). */
void
expectSameInstant(double walk, double ref, double horizon,
                  const std::string &what)
{
    if (ref == oracle::kNone)
        EXPECT_GT(walk, horizon - kInstantTol)
            << what << ": the reference finds none within " << horizon
            << " s";
    else
        EXPECT_NEAR(walk, ref, kInstantTol) << what;
}

/** Ledger flows agree within 0.1% plus 20 steps at 10 mW. */
void
expectSameFlow(double walk, double ref, const std::string &what)
{
    double tol = 1e-3 * std::max(std::abs(walk), std::abs(ref)) +
                 20 * oracle::kStep * 10e-3;
    EXPECT_NEAR(walk, ref, tol) << what;
}

/** The ledgers agree flow by flow, and the walker's balances. */
void
expectSameLedger(const Twin &tw, const std::string &where)
{
    const auto &st = tw.ps->stats();
    const oracle::Ledger &book = tw.ref->ledger();
    expectSameFlow(st.harvestedIn, book.harvestedIn, "harvestedIn" + where);
    expectSameFlow(st.drainedOut, book.drainedOut, "drainedOut" + where);
    expectSameFlow(st.leaked, book.leaked, "leaked" + where);
    expectSameFlow(st.sharingLoss, book.sharingLoss, "sharingLoss" + where);
    expectSameFlow(st.faultDrained, book.faultDrained,
                   "faultDrained" + where);
    EXPECT_NEAR(tw.ps->ledgerResidual(), 0.0,
                1e-6 * st.harvestedIn + 1e-12)
        << where;
}

void
expectSameBoard(const Twin &tw, const std::string &where)
{
    for (int i = 0; i < tw.ps->numBanks(); ++i) {
        EXPECT_EQ(tw.ps->bankActive(i), tw.ref->bankActive(i))
            << "bank " << i << where;
        EXPECT_NEAR(tw.ps->bank(i).voltage(), tw.ref->bankVoltage(i),
                    kVoltTol)
            << "bank " << i << where;
    }
}

} // namespace

/**
 * One random board advanced through random splits of up to a minute:
 * bank voltages after every split, and charge completions and the
 * ledger at the end, match the reference's. Three in five boards with
 * a switch run 185-240 s with the rail off and every switch commanded
 * away from its default, so its latch decays (in about 181 s) and the
 * switch reverts on the way. A collapse, when the seed draws one,
 * lands at a random instant.
 */
class ReferenceBoardAdvance : public ::testing::TestWithParam<int>
{};

TEST_P(ReferenceBoardAdvance, MatchesTheReference)
{
    sim::Rng rng(std::uint64_t(GetParam()), 0x0AC1);
    Twin tw = randomTwin(rng);
    Upsets upsets = drawUpsets(tw, GetParam());
    std::string where = ", seed " + std::to_string(GetParam()) +
                        ", start " +
                        std::to_string(tw.ps->storageVoltage()) + " V" +
                        upsets.what;

    bool switched = false;
    for (int i = 0; i < tw.ps->numBanks(); ++i)
        switched |= tw.ps->bankSwitch(i) != nullptr;
    double horizon = rng.uniform(1.0, 60.0);
    if (switched && rng.chance(0.6)) {
        horizon = rng.uniform(185.0, 240.0);
        tw.setRailEnabled(true);
        for (int i = 0; i < tw.ps->numBanks(); ++i) {
            if (const BankSwitch *sw = tw.ps->bankSwitch(i)) {
                bool closed = sw->spec().kind == SwitchKind::NormallyOpen;
                tw.ps->commandSwitch(i, closed);
                tw.ref->commandSwitch(i, closed);
            }
        }
        tw.setRailEnabled(false);
    }
    if (upsets.above) {
        // Draining from above the ceiling is quick under a load.
        tw.advanceTo(0.05);
        expectSameBoard(tw, " at 0.05 s" + where);
    }
    double t_collapse = upsets.collapse ? upsets.when * horizon : kNever;
    for (sim::Time t = 0.0; t < horizon;) {
        t = std::min(horizon, t + rng.exponential(horizon / 6.0));
        if (t_collapse <= t) {
            tw.advanceTo(t_collapse);
            tw.collapseToBrownout();
            t_collapse = kNever;
        }
        tw.advanceTo(t);
        expectSameBoard(tw, " at " + std::to_string(t) + " s" + where);
    }
    EXPECT_EQ(tw.ps->stats().chargeCompletions,
              tw.ref->chargeCompletions())
        << where;

    expectSameLedger(tw, where);
}

INSTANTIATE_TEST_SUITE_P(Seeds, ReferenceBoardAdvance,
                         ::testing::Range(0, 40));

/**
 * The predictive queries and runLoad() from a random board's start:
 * timeToFull() and timeToBrownout() within a 30 s horizon, then a
 * workload run to its end, where the bank voltages and the ledger
 * match, and, when the seed draws a collapse, timeToFull() from the
 * floor after it.
 */
class ReferenceBoardQueries : public ::testing::TestWithParam<int>
{};

TEST_P(ReferenceBoardQueries, MatchTheReference)
{
    constexpr double kHorizon = 30.0;
    sim::Rng rng(std::uint64_t(GetParam()), 0x0AC2);
    Twin tw = randomTwin(rng);
    Upsets upsets = drawUpsets(tw, GetParam());
    std::string where = ", seed " + std::to_string(GetParam()) +
                        ", start " +
                        std::to_string(tw.ps->storageVoltage()) + " V" +
                        upsets.what;

    expectSameInstant(tw.ps->timeToFull(), tw.ref->timeToFull(kHorizon),
                      kHorizon, "timeToFull" + where);
    tw.setRailEnabled(true);
    expectSameInstant(tw.ps->timeToBrownout(),
                      tw.ref->timeToBrownout(kHorizon), kHorizon,
                      "timeToBrownout" + where);

    double watts = rng.uniform(0.0, 12e-3);
    double dur = rng.uniform(0.01, kHorizon);
    expectSameInstant(tw.ps->runLoad(watts, dur),
                      tw.ref->runLoad(watts, dur), dur, "runLoad" + where);
    tw.advanceTo(dur);
    expectSameBoard(tw, " after runLoad" + where);
    expectSameLedger(tw, " after runLoad" + where);

    if (upsets.collapse) {
        tw.collapseToBrownout();
        expectSameInstant(tw.ps->timeToFull(),
                          tw.ref->timeToFull(kHorizon), kHorizon,
                          "timeToFull after the collapse" + where);
    }
}

INSTANTIATE_TEST_SUITE_P(Seeds, ReferenceBoardQueries,
                         ::testing::Range(100, 130));

/**
 * A random 2-4 node federated cascade, idle or loaded, advanced
 * through random splits against its reference, then asked when a
 * random node is full and when a loaded node browns out.
 */
class ReferenceCascadeMatch : public ::testing::TestWithParam<int>
{};

TEST_P(ReferenceCascadeMatch, MatchesTheReference)
{
    constexpr double kHorizon = 30.0;
    sim::Rng rng(std::uint64_t(GetParam()), 0x0AC3);
    FederatedStorage::Spec spec;
    double p_h = rng.uniform(0.2e-3, 10e-3);
    sim::Rng supply_rng = rng;  // the same draws build the same supply
    auto supply = randomSupply(supply_rng, p_h);
    auto fs = std::make_unique<FederatedStorage>(spec,
                                                 randomSupply(rng, p_h));
    oracle::ReferenceCascade ref(spec, *supply);
    int n = static_cast<int>(rng.uniformInt(2, 4));
    for (int i = 0; i < n; ++i) {
        CapacitorSpec cap = randomCap(rng);
        fs->addNode("n" + std::to_string(i), cap);
        ref.addNode(cap);
        double v = rng.uniform(0.0, 2.9);
        fs->setNodeVoltageForTest(i, v);
        ref.setNodeVoltage(i, v);
        if (rng.chance(0.5)) {
            double load = rng.uniform(0.1e-3, 8e-3);
            fs->setNodeLoad(i, load);
            ref.setNodeLoad(i, load);
        }
    }
    std::string where = ", seed " + std::to_string(GetParam());

    int idx = static_cast<int>(rng.uniformInt(0, std::uint64_t(n - 1)));
    expectSameInstant(fs->timeToNodeFull(idx),
                      ref.timeToNodeFull(idx, kHorizon), kHorizon,
                      "timeToNodeFull(" + std::to_string(idx) + ")" +
                          where);
    expectSameInstant(fs->timeToAnyBrownout(),
                      ref.timeToAnyBrownout(kHorizon), kHorizon,
                      "timeToAnyBrownout" + where);

    double horizon = rng.uniform(1.0, 40.0);
    for (sim::Time t = 0.0; t < horizon;) {
        t = std::min(horizon, t + rng.exponential(horizon / 6.0));
        fs->advanceTo(t);
        ref.advanceTo(t);
    }
    for (int i = 0; i < n; ++i)
        EXPECT_NEAR(fs->nodeVoltage(i), ref.nodeVoltage(i), kVoltTol)
            << "node " << i << " of " << n << where;
}

INSTANTIATE_TEST_SUITE_P(Seeds, ReferenceCascadeMatch,
                         ::testing::Range(200, 230));
