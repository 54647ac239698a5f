/**
 * @file
 * Tests for the UFoP-style federated storage cascade.
 */

#include <gtest/gtest.h>

#include <cmath>
#include <cstdlib>
#include <memory>
#include <new>

#include "power/federated.hh"
#include "power/parts.hh"
#include "power/solver.hh"
#include "sim/logging.hh"

using namespace capy;
using namespace capy::power;

namespace
{

/** Global heap-allocation counter for the zero-alloc assertions. */
std::uint64_t g_newCalls = 0;

} // namespace

void *
operator new(std::size_t size)
{
    ++g_newCalls;
    if (void *p = std::malloc(size ? size : 1))
        return p;
    throw std::bad_alloc();
}

void *
operator new[](std::size_t size)
{
    return operator new(size);
}

void
operator delete(void *p) noexcept
{
    std::free(p);
}

void
operator delete(void *p, std::size_t) noexcept
{
    std::free(p);
}

void
operator delete[](void *p) noexcept
{
    std::free(p);
}

void
operator delete[](void *p, std::size_t) noexcept
{
    std::free(p);
}

namespace
{

std::unique_ptr<FederatedStorage>
makeFederation(double harvest_mw = 5.0)
{
    FederatedStorage::Spec spec;
    auto fs = std::make_unique<FederatedStorage>(
        spec,
        std::make_unique<RegulatedSupply>(harvest_mw * 1e-3, 3.3));
    fs->addNode("mcu", parts::x5r100uF().parallel(4));
    fs->addNode("sensor", parts::x5r100uF().parallel(2));
    fs->addNode("radio", parts::edlc7_5mF());
    return fs;
}

} // namespace

TEST(Federated, CascadeChargesInPriorityOrder)
{
    auto fs = makeFederation();
    // MCU node fills first; radio node must still be empty then.
    sim::Time t_mcu = fs->timeToNodeFull(0);
    ASSERT_TRUE(std::isfinite(t_mcu));
    fs->advanceTo(t_mcu + 1e-3);
    EXPECT_TRUE(fs->nodeFull(0));
    EXPECT_FALSE(fs->nodeFull(2));
    EXPECT_LT(fs->nodeVoltage(2), 0.5);

    // Then the sensor node, then the radio node.
    sim::Time t_sensor = fs->timeToNodeFull(1);
    sim::Time t_radio = fs->timeToNodeFull(2);
    ASSERT_TRUE(std::isfinite(t_sensor));
    ASSERT_TRUE(std::isfinite(t_radio));
    EXPECT_LT(t_sensor, t_radio);
    fs->advanceTo(fs->time() + t_radio + 1.0);
    EXPECT_TRUE(fs->allFull());
}

TEST(Federated, LoadsDrainOnlyTheirNode)
{
    auto fs = makeFederation();
    fs->advanceTo(fs->timeToNodeFull(2) + 1.0);
    ASSERT_TRUE(fs->allFull());
    // Stop charging influence by loading the radio node heavily.
    fs->setNodeLoad(2, 20e-3);
    double v_sensor_before = fs->nodeVoltage(1);
    fs->advanceTo(fs->time() + 1.0);
    EXPECT_LT(fs->nodeVoltage(2), 2.9);
    EXPECT_NEAR(fs->nodeVoltage(1), v_sensor_before, 0.05)
        << "the sensor node is isolated from the radio load";
}

TEST(Federated, BrownoutPrediction)
{
    auto fs = makeFederation(0.0);  // no harvest
    fs->setNodeVoltageForTest(0, 3.0);
    fs->setNodeLoad(0, 22e-3);
    sim::Time t_bo = fs->timeToAnyBrownout();
    ASSERT_TRUE(std::isfinite(t_bo));
    fs->advanceTo(t_bo);
    EXPECT_NEAR(fs->nodeVoltage(0), fs->nodeBrownoutVoltage(0), 5e-3);
}

TEST(Federated, NoLoadNoBrownout)
{
    auto fs = makeFederation();
    EXPECT_TRUE(std::isinf(fs->timeToAnyBrownout()));
}

TEST(Federated, ChargingStallsOnLoadedEarlyNode)
{
    // A permanent load on the MCU node that exceeds the harvest means
    // the cascade never advances to the radio node: the tragedy of
    // the coulombs.
    auto fs = makeFederation(1.0);
    fs->setNodeLoad(0, 5e-3);  // draw more than 1 mW harvest
    fs->advanceTo(600.0);
    EXPECT_FALSE(fs->nodeFull(0));
    EXPECT_LT(fs->nodeVoltage(2), 0.2)
        << "the radio node starves behind the loaded MCU node";
}

TEST(Federated, StrandedEnergyIsInaccessible)
{
    // Once charged, the radio node's energy cannot serve other nodes:
    // with no harvest, the MCU node dies while the radio node keeps
    // nearly all its charge.
    auto fs = makeFederation();
    fs->advanceTo(fs->timeToNodeFull(2) + 1.0);
    ASSERT_TRUE(fs->allFull());
    // A heavy MCU load the harvest cannot cover.
    fs->setNodeLoad(0, 22e-3);
    fs->advanceTo(fs->time() + fs->timeToAnyBrownout() + 0.5);
    EXPECT_LT(fs->nodeVoltage(0), 1.3);
    EXPECT_GT(fs->node(2).energy(),
              0.8 * fs->node(2).energyAtVoltage(3.0))
        << "the radio node's energy is stranded";
}

TEST(Federated, WalksAllocateNothing)
{
    // Advances and both queries walk pre-sized scratch state: no heap
    // traffic per call.
    auto fs = makeFederation();
    fs->advanceTo(5.0);
    std::uint64_t before = g_newCalls;
    sim::Time t2 = fs->timeToNodeFull(2);
    for (int i = 0; i < 8; ++i)
        (void)fs->timeToNodeFull(i % 3);
    fs->setNodeLoad(0, 22e-3);
    sim::Time t_bo = fs->timeToAnyBrownout();
    fs->advanceTo(60.0);
    fs->advanceTo(61.0);
    (void)fs->timeToAnyBrownout();
    EXPECT_EQ(g_newCalls, before) << "a federated walk heap-allocated";
    ASSERT_TRUE(std::isfinite(t2));
    ASSERT_TRUE(std::isfinite(t_bo));
    // And the queries must not disturb the live state.
    double v0 = fs->nodeVoltage(0);
    (void)fs->timeToNodeFull(2);
    (void)fs->timeToAnyBrownout();
    EXPECT_EQ(fs->nodeVoltage(0), v0);
}

TEST(Federated, LoadedPriorityNodeIsHeldAtTop)
{
    // All nodes full, 1 mW on the MCU node under a 5 mW supply: the
    // booster covers the load at the top, so the node stays full
    // however the caller splits time.
    auto one = makeFederation();
    auto many = makeFederation();
    for (auto *fs : {one.get(), many.get()}) {
        fs->advanceTo(fs->timeToNodeFull(2) + 1.0);
        ASSERT_TRUE(fs->allFull());
        fs->setNodeLoad(0, 1e-3);
    }
    sim::Time start = one->time();
    one->advanceTo(start + 10.0);
    for (int k = 1; k <= 1000; ++k)
        many->advanceTo(start + 10e-3 * k);
    EXPECT_TRUE(one->nodeFull(0));
    EXPECT_TRUE(many->nodeFull(0));
    EXPECT_NEAR(one->nodeVoltage(0), many->nodeVoltage(0), 1e-6);
}

TEST(Federated, TotalStoredEnergyAccounting)
{
    auto fs = makeFederation();
    EXPECT_NEAR(fs->totalStoredEnergy(), 0.0, 1e-12);
    fs->advanceTo(fs->timeToNodeFull(2) + 1.0);
    double expected = fs->node(0).energyAtVoltage(3.0) +
                      fs->node(1).energyAtVoltage(3.0) +
                      fs->node(2).energyAtVoltage(3.0);
    EXPECT_NEAR(fs->totalStoredEnergy(), expected, expected * 1e-3);
}
