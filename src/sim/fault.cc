#include "sim/fault.hh"

#include <algorithm>
#include <utility>

#include "sim/logging.hh"
#include "sim/random.hh"

namespace capy::sim
{

FaultPlan
FaultPlan::atTimes(std::vector<Time> when)
{
    FaultPlan plan;
    std::sort(when.begin(), when.end());
    plan.times = std::move(when);
    return plan;
}

FaultPlan
FaultPlan::atEvent(std::uint64_t k)
{
    capy_assert(k > 0, "event indices are 1-based");
    FaultPlan plan;
    plan.everyNthEvent = 1;
    plan.eventOffset = k - 1;
    plan.maxAttempts = 1;
    return plan;
}

FaultPlan
FaultPlan::everyNth(std::uint64_t n, std::uint64_t offset)
{
    capy_assert(n > 0, "everyNth(0)");
    FaultPlan plan;
    plan.everyNthEvent = n;
    plan.eventOffset = offset;
    return plan;
}

FaultPlan
FaultPlan::poisson(std::uint64_t seed, double mean_interval,
                   Time horizon, Time start_after)
{
    capy_assert(mean_interval > 0.0, "mean interval %g", mean_interval);
    Rng rng(seed, 0xfa17);
    FaultPlan plan;
    plan.times =
        poissonArrivals(rng, mean_interval, horizon, start_after);
    return plan;
}

FaultInjector::FaultInjector(Simulator &simulator, FaultPlan plan_in,
                             Action action_in)
    : sim(simulator), plan(std::move(plan_in)),
      action(std::move(action_in))
{
    capy_assert(action != nullptr, "injector needs an action");
    for (Time t : plan.times) {
        if (t < sim.now())
            continue;  // pre-start instants can never fire
        sim.scheduleAt(
            t, timedAttempts.emplace_back(
                   [](void *inj) {
                       static_cast<FaultInjector *>(inj)->attempt();
                   },
                   this));
    }
    if (plan.everyNthEvent > 0) {
        sim.setPostEventHook([this] { onEventExecuted(); });
    }
}

FaultInjector::~FaultInjector()
{
    if (plan.everyNthEvent > 0)
        sim.setPostEventHook({});
}

void
FaultInjector::onEventExecuted()
{
    std::uint64_t executed = sim.eventsExecuted();
    if (executed <= plan.eventOffset)
        return;
    if ((executed - plan.eventOffset) % plan.everyNthEvent != 0)
        return;
    attempt();
}

void
FaultInjector::attempt()
{
    if (numAttempts >= plan.maxAttempts)
        return;
    ++numAttempts;
    if (action()) {
        ++numFired;
        whenFired.push_back(sim.now());
    }
}

} // namespace capy::sim
