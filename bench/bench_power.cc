/**
 * @file
 * Power-layer microbenchmarks (google-benchmark): every simulated
 * second of a device run funnels through PowerSystem::advanceTo, the
 * closed-form solver and Harvester queries, and the device leans on
 * runLoad and the predictive queries (timeToFull) to jump the clock.
 * The cases time that single-thread path directly:
 *
 *  - advance-heavy: many small advanceTo() steps against a looping
 *    288-sample harvest trace with periodic load changes (the
 *    trace-replay pattern of a deployed device);
 *  - query-heavy: workload bundles of runLoad and the advanceTo to
 *    the workload's end, the call pattern of dev::Device::runWorkload;
 *  - the solver's advance and crossing primitives, and one full
 *    charge/discharge cycle of a regulated-supply board.
 *
 * Timings are for exploring the layer; the walk and phase counts of
 * the real workloads are gated exactly by tests/work_counts.cc, and
 * test_hotpath asserts that every power cache hits.
 */

#include <benchmark/benchmark.h>

#include <cmath>
#include <memory>
#include <vector>

#include "power/harvester.hh"
#include "power/parts.hh"
#include "power/power_system.hh"
#include "power/solver.hh"

using namespace capy;

namespace
{

/** Synthetic solar day: 288 five-minute samples, half-sine envelope
 *  (night = 0), looping. Step count is what drives harvester query
 *  cost, matching a measured deployment trace. */
std::vector<power::TraceHarvester::Sample>
solarDayTrace()
{
    std::vector<power::TraceHarvester::Sample> samples;
    samples.reserve(288);
    for (int i = 0; i < 288; ++i) {
        double t = double(i) * 300.0;
        double phase = double(i) / 288.0;  // 0..1 over the day
        double sun = std::sin((phase - 0.25) * 2.0 * M_PI);
        double p = sun > 0.0 ? 8e-3 * sun : 0.0;
        samples.push_back({t, p});
    }
    return samples;
}

std::unique_ptr<power::PowerSystem>
makeBenchSystem()
{
    power::PowerSystem::Spec spec;
    auto ps = std::make_unique<power::PowerSystem>(
        spec,
        std::make_unique<power::TraceHarvester>(solarDayTrace(), 3.3));
    ps->addBank("small", power::parts::x5r100uF().parallel(4));
    ps->addBank("big", power::parts::edlc7_5mF());
    ps->setBankVoltageForTest(0, 1.5);
    ps->setBankVoltageForTest(1, 1.5);
    return ps;
}

/** One advance-heavy pass: @p steps 1-second advances with a load
 *  change every 50 steps. Returns a value sink. */
double
advanceHeavy(power::PowerSystem &ps, int steps)
{
    double sink = 0.0;
    sim::Time t = ps.time();
    ps.setRailEnabled(true);
    for (int i = 0; i < steps; ++i) {
        if (i % 50 == 0)
            ps.setRailLoad(i % 100 == 0 ? 2e-3 : 0.2e-3);
        t += 1.0;
        ps.advanceTo(t);
        sink += ps.storageVoltage();
    }
    return sink;
}

/** One query-heavy pass: @p bundles back-to-back 10 ms workloads,
 *  each issued as dev::Device::runWorkload does (run the workload's
 *  load to its end, which walks once, then advance there, which
 *  commits that walk), alternating between two task loads. Returns a
 *  value sink. */
double
queryHeavy(power::PowerSystem &ps, int bundles)
{
    double sink = 0.0;
    sim::Time t = ps.time();
    ps.setRailEnabled(true);
    for (int i = 0; i < bundles; ++i) {
        sim::Time end = t + 10e-3;
        sim::Time tb = ps.runLoad(i % 2 == 0 ? 1e-3 : 3e-3, end);
        ps.advanceTo(end);
        t = end;
        sink += std::isfinite(tb) ? tb : 0.0;
    }
    return sink;
}

// --- Registered microbenchmarks -------------------------------------

void
BM_PowerAdvanceTrace(benchmark::State &state)
{
    auto ps = makeBenchSystem();
    for (auto _ : state)
        benchmark::DoNotOptimize(advanceHeavy(*ps, 256));
    state.SetItemsProcessed(state.iterations() * 256);
}
BENCHMARK(BM_PowerAdvanceTrace);

void
BM_PowerQueryBundle(benchmark::State &state)
{
    auto ps = makeBenchSystem();
    for (auto _ : state)
        benchmark::DoNotOptimize(queryHeavy(*ps, 64));
    state.SetItemsProcessed(state.iterations() * 64);
}
BENCHMARK(BM_PowerQueryBundle);

void
BM_SolverAdvance(benchmark::State &state)
{
    power::Phase ph{5e-3, 7.5e-3, 2e5};
    double e = 0.001;
    for (auto _ : state) {
        e = power::advanceEnergy(e, ph, 0.01);
        if (e > 0.03)
            e = 0.001;
        benchmark::DoNotOptimize(e);
    }
    state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_SolverAdvance);

void
BM_SolverCrossing(benchmark::State &state)
{
    power::Phase ph{5e-3, 7.5e-3, 2e5};
    for (auto _ : state) {
        double t = power::timeToEnergy(0.001, 0.02, ph);
        benchmark::DoNotOptimize(t);
    }
    state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_SolverCrossing);

void
BM_PowerSystemChargeCycle(benchmark::State &state)
{
    for (auto _ : state) {
        power::PowerSystem::Spec spec;
        power::PowerSystem ps(
            spec,
            std::make_unique<power::RegulatedSupply>(10e-3, 3.3));
        ps.addBank("b", power::parts::edlc7_5mF());
        ps.advanceTo(ps.timeToFull() + 1.0);
        ps.setRailEnabled(true);
        ps.setRailLoad(20e-3);
        ps.advanceTo(ps.time() + ps.timeToBrownout());
        benchmark::DoNotOptimize(ps.storageVoltage());
    }
    state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_PowerSystemChargeCycle);

} // namespace

BENCHMARK_MAIN();
