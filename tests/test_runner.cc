/**
 * @file
 * Tests for the parallel batch-execution engine: results arrive in
 * submission order and are identical at every pool size, exceptions
 * propagate deterministically, empty batches are no-ops, and
 * CAPY_JOBS controls the default pool size. That the programs'
 * output is the same at any thread count is checked by the goldens,
 * each run at CAPY_JOBS=1 and 4.
 */

#include <gtest/gtest.h>

#include <cstdlib>
#include <functional>
#include <numeric>
#include <stdexcept>
#include <vector>

#include "sim/logging.hh"
#include "sim/runner.hh"
#include "sim/simulator.hh"

using namespace capy;
using namespace capy::sim;

namespace
{

/**
 * A job of the kind BatchRunner exists for: an independent
 * event-driven simulation whose result is a pure function of its
 * index.
 */
std::uint64_t
simJob(std::size_t index)
{
    Simulator s;
    std::uint64_t acc = index;
    for (int i = 0; i < 50; ++i) {
        s.schedule(double(i) * 0.5 + double(index % 7),
                   [&acc, &s] { acc = acc * 31 + std::uint64_t(s.now() * 2.0); });
    }
    s.run();
    return acc;
}

} // namespace

TEST(BatchRunner, ResultsArriveInSubmissionOrder)
{
    BatchRunner pool(4);
    auto out = pool.map(64, [](std::size_t i) { return i * i; });
    ASSERT_EQ(out.size(), 64u);
    for (std::size_t i = 0; i < out.size(); ++i)
        EXPECT_EQ(out[i], i * i);
}

TEST(BatchRunner, DeterministicAcrossThreadCounts)
{
    std::vector<std::vector<std::uint64_t>> results;
    for (unsigned threads : {1u, 2u, 8u}) {
        BatchRunner pool(threads);
        EXPECT_EQ(pool.threads(), threads);
        results.push_back(pool.map(40, simJob));
    }
    EXPECT_EQ(results[0], results[1]);
    EXPECT_EQ(results[0], results[2]);
}

TEST(BatchRunner, EmptyBatchIsANoOp)
{
    BatchRunner pool(4);
    auto out = pool.map(0, [](std::size_t) { return 1; });
    EXPECT_TRUE(out.empty());
    int calls = 0;
    pool.forEach(0, [&](std::size_t) { ++calls; });
    EXPECT_EQ(calls, 0);
}

TEST(BatchRunner, ExceptionFromAJobPropagates)
{
    BatchRunner pool(4);
    EXPECT_THROW(pool.forEach(8,
                              [](std::size_t i) {
                                  if (i == 5)
                                      throw std::runtime_error("boom");
                              }),
                 std::runtime_error);
}

TEST(BatchRunner, LowestIndexExceptionWinsDeterministically)
{
    BatchRunner pool(8);
    for (int attempt = 0; attempt < 5; ++attempt) {
        try {
            pool.forEach(16, [](std::size_t i) {
                if (i % 3 == 0 && i > 0)
                    throw std::runtime_error("job " +
                                             std::to_string(i));
            });
            FAIL() << "expected an exception";
        } catch (const std::runtime_error &e) {
            EXPECT_STREQ(e.what(), "job 3");
        }
    }
}

TEST(BatchRunner, PoolIsReusableAfterABatchAndAfterAnError)
{
    BatchRunner pool(2);
    auto a = pool.map(10, [](std::size_t i) { return i + 1; });
    EXPECT_EQ(a.back(), 10u);
    EXPECT_THROW(pool.forEach(
                     4, [](std::size_t) { throw std::logic_error("x"); }),
                 std::logic_error);
    auto b = pool.map(10, [](std::size_t i) { return i * 2; });
    EXPECT_EQ(b.back(), 18u);
}

TEST(BatchRunner, MapItemsPreservesItemOrder)
{
    BatchRunner pool(3);
    std::vector<int> items(30);
    std::iota(items.begin(), items.end(), 0);
    auto out = pool.mapItems(items, [](int v) { return v * 10; });
    for (std::size_t i = 0; i < items.size(); ++i)
        EXPECT_EQ(out[i], int(i) * 10);
}

TEST(BatchRunner, SingleThreadPoolSpawnsNoWorkers)
{
    BatchRunner pool(1);
    EXPECT_EQ(pool.threads(), 1u);
    auto out = pool.map(5, [](std::size_t i) { return i; });
    EXPECT_EQ(out, (std::vector<std::size_t>{0, 1, 2, 3, 4}));
}

TEST(BatchRunner, DefaultThreadsHonoursCapyJobs)
{
    setQuiet(true);
    ASSERT_EQ(setenv("CAPY_JOBS", "3", 1), 0);
    EXPECT_EQ(BatchRunner::defaultThreads(), 3u);
    // Invalid values fall back to hardware concurrency (>= 1).
    ASSERT_EQ(setenv("CAPY_JOBS", "zero", 1), 0);
    EXPECT_GE(BatchRunner::defaultThreads(), 1u);
    ASSERT_EQ(setenv("CAPY_JOBS", "-2", 1), 0);
    EXPECT_GE(BatchRunner::defaultThreads(), 1u);
    unsetenv("CAPY_JOBS");
    EXPECT_GE(BatchRunner::defaultThreads(), 1u);
    setQuiet(false);
}
