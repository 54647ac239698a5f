/**
 * @file
 * Engine microbenchmarks (google-benchmark) for layer work: the
 * event-queue hot path (schedule / cancel / runNext, callback
 * dispatch), one-event simulator chains through an owned Event, run
 * in place (Simulator::claimInPlace) and through a std::function
 * closure per event, the RNG, and TempAlarm sweep
 * throughput at 1 thread vs the sweep pool. Timings are for
 * exploring one layer; the end-to-end perf figures come from
 * e2ebench, and the tier-1 gate is the exact work counts of
 * tests/work_counts.cc.
 */

#include <benchmark/benchmark.h>

#include <cstdint>

#include "apps/ta.hh"
#include "env/events.hh"
#include "sim/event.hh"
#include "sim/logging.hh"
#include "sim/random.hh"
#include "sim/runner.hh"
#include "sim/simulator.hh"

using namespace capy;

namespace
{

// --- Event-queue hot path -------------------------------------------

void
BM_EventScheduleRun(benchmark::State &state)
{
    sim::EventQueue q;
    double t = 0.0;
    for (auto _ : state) {
        for (int i = 0; i < 64; ++i)
            q.schedule(t + double(i % 7), [] {});
        while (!q.empty())
            q.runNext();
        t += 10.0;
    }
    state.SetItemsProcessed(state.iterations() * 64);
}
BENCHMARK(BM_EventScheduleRun);

/** An owned event whose handler does nothing. */
struct IdleEvent
{
    sim::Event ev{[](void *) {}, nullptr};
};

void
BM_EventScheduleCancel(benchmark::State &state)
{
    // Cancel-heavy traffic: every scheduled event is cancelled before
    // it can run, leaving a stale record for the heap head to skip.
    sim::EventQueue q;
    IdleEvent evs[64];
    double t = 0.0;
    for (auto _ : state) {
        for (int i = 0; i < 64; ++i)
            q.schedule(t + double(i), evs[i].ev);
        for (int i = 0; i < 64; ++i)
            benchmark::DoNotOptimize(q.cancel(evs[i].ev));
        // Drain the stale records so heap size stays bounded.
        benchmark::DoNotOptimize(q.empty());
        t += 100.0;
    }
    state.SetItemsProcessed(state.iterations() * 64);
}
BENCHMARK(BM_EventScheduleCancel);

void
BM_EventRetimerChurn(benchmark::State &state)
{
    // The device-model pattern: one pending timeout that is
    // repeatedly cancelled and rescheduled as conditions change.
    sim::EventQueue q;
    IdleEvent timeout;
    double t = 0.0;
    q.schedule(1e18, timeout.ev);
    for (auto _ : state) {
        q.cancel(timeout.ev);
        q.schedule(1e18 + t, timeout.ev);
        t += 1.0;
        // Drop the stale record, so heap size stays bounded.
        benchmark::DoNotOptimize(q.empty());
    }
    state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_EventRetimerChurn);

/** Report the time per event of @p events per iteration as the
 *  counter per_event (printed in seconds with an SI prefix, e.g.
 *  13.7ns). */
void
setTimePerEvent(benchmark::State &state, std::int64_t events)
{
    state.counters["per_event"] = benchmark::Counter(
        double(state.iterations() * events),
        benchmark::Counter::kIsRate | benchmark::Counter::kInvert);
}

/** A 1000-event self-rescheduling chain, the device's one-pending-
 *  event pattern, through an owned sim::Event. */
struct OwnedChain
{
    sim::Simulator &sim;
    int depth = 0;
    sim::Event ev{[](void *c) { static_cast<OwnedChain *>(c)->step(); },
                  this};

    void
    step()
    {
        if (++depth < 1000)
            sim.schedule(0.001, ev);
    }
};

void
BM_OwnedEventChain(benchmark::State &state)
{
    for (auto _ : state) {
        sim::Simulator s;
        OwnedChain chain{s};
        s.schedule(0.0, chain.ev);
        s.run();
        benchmark::DoNotOptimize(chain.depth);
    }
    state.SetItemsProcessed(state.iterations() * 1000);
    setTimePerEvent(state, 1000);
}
BENCHMARK(BM_OwnedEventChain);

/** The same chain run in place, the device's completion loop: each
 *  step closes its event and claims the next, which the empty queue
 *  always grants. */
struct InPlaceChain
{
    sim::Simulator &sim;
    int depth = 0;
    sim::Event ev{[](void *c) { static_cast<InPlaceChain *>(c)->step(); },
                  this};

    void
    step()
    {
        while (++depth < 1000) {
            sim::Time next = sim.now() + 0.001;
            sim.closeEvent();
            if (!sim.claimInPlace(next)) {
                sim.scheduleAt(next, ev);
                return;
            }
        }
    }
};

void
BM_InPlaceChain(benchmark::State &state)
{
    for (auto _ : state) {
        sim::Simulator s;
        InPlaceChain chain{s};
        s.schedule(0.0, chain.ev);
        s.run();
        benchmark::DoNotOptimize(chain.depth);
    }
    state.SetItemsProcessed(state.iterations() * 1000);
    setTimePerEvent(state, 1000);
}
BENCHMARK(BM_InPlaceChain);

/** The same chain as a fresh [this] std::function closure per
 *  event (a pooled callback event). */
struct CallbackChain
{
    sim::Simulator &sim;
    int depth = 0;

    void
    step()
    {
        if (++depth < 1000)
            sim.schedule(0.001, [this] { step(); });
    }
};

void
BM_CallbackEventChain(benchmark::State &state)
{
    for (auto _ : state) {
        sim::Simulator s;
        CallbackChain chain{s};
        s.schedule(0.0, [&chain] { chain.step(); });
        s.run();
        benchmark::DoNotOptimize(chain.depth);
    }
    state.SetItemsProcessed(state.iterations() * 1000);
}
BENCHMARK(BM_CallbackEventChain);

void
BM_RngExponential(benchmark::State &state)
{
    sim::Rng rng(1);
    for (auto _ : state) {
        double v = rng.exponential(30.0);
        benchmark::DoNotOptimize(v);
    }
    state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_RngExponential);

// --- Sweep throughput -----------------------------------------------

/** One TempAlarm run of the kind every fig bench sweeps over. */
apps::RunMetrics
sweepJob(std::uint64_t seed)
{
    sim::Rng rng(seed, 0x7a);
    auto sched =
        env::EventSchedule::poissonCount(rng, 10, 600.0, 30.0);
    return apps::runTempAlarm(core::Policy::CapyP, sched, seed, 600.0);
}

void
BM_SweepTempAlarm(benchmark::State &state)
{
    setQuiet(true);
    auto threads = unsigned(state.range(0));
    sim::BatchRunner pool(threads);
    for (auto _ : state) {
        auto runs = pool.map(8, [](std::size_t i) {
            return sweepJob(std::uint64_t(i) + 1);
        });
        benchmark::DoNotOptimize(runs.front().summary.correct);
    }
    // Eight simulated runs of 600 s each per iteration.
    state.SetItemsProcessed(state.iterations() * 8 * 600);
}
BENCHMARK(BM_SweepTempAlarm)
    ->Arg(1)
    ->Arg(int(sim::BatchRunner::defaultThreads()))
    ->Unit(benchmark::kMillisecond);

} // namespace

BENCHMARK_MAIN();
