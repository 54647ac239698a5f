#include "layers.hh"

#include <cmath>
#include <memory>

#include "apps/boards.hh"
#include "dev/mcu.hh"
#include "dev/nvmem.hh"
#include "env/light.hh"
#include "env/pendulum.hh"
#include "env/scoring.hh"
#include "env/thermal.hh"
#include "power/parts.hh"
#include "rt/task.hh"
#include "sim/runner.hh"
#include "sim/simulator.hh"

namespace e2e
{

using namespace capy;

namespace
{

/** Keeps replayed results observable so no call is optimized away. */
volatile double sink = 0.0;

template <typename Fn>
double
timeSeconds(Fn &&fn)
{
    Clock::time_point t0 = Clock::now();
    fn();
    return seconds(t0, Clock::now());
}

/** Accumulates the cost of individually timed calls, net of the
 *  clock's own cost. */
class CallTimer
{
  public:
    CallTimer()
    {
        // Cost of an empty timed call: two clock reads.
        constexpr int kCalib = 4096;
        Clock::time_point t0 = Clock::now();
        for (int i = 0; i < kCalib; ++i)
            sink = sink + seconds(Clock::now(), Clock::now());
        overhead = seconds(t0, Clock::now()) / kCalib;
    }

    template <typename Fn>
    auto
    operator()(Fn &&fn)
    {
        Clock::time_point t0 = Clock::now();
        auto r = fn();
        total += seconds(t0, Clock::now());
        ++calls;
        return r;
    }

    std::uint64_t count() const { return calls; }
    double
    nsPerCall() const
    {
        if (calls == 0)
            return 0.0;
        return std::max(0.0, total / double(calls) - overhead) * 1e9;
    }

  private:
    double overhead = 0.0;
    double total = 0.0;
    std::uint64_t calls = 0;
};

} // namespace

double
replayDispatchNs(std::uint64_t events)
{
    // One self-rescheduling chain, the shape of the device's pending
    // workload/charge event.
    struct Chain
    {
        sim::Simulator &sim;
        std::uint64_t left;
        void
        step()
        {
            if (--left > 0)
                sim.schedule(1e-3, [this] { step(); });
        }
    };
    sim::Simulator sim;
    Chain chain{sim, std::max<std::uint64_t>(events, 1)};
    sim.schedule(0.0, [&chain] { chain.step(); });
    double s = timeSeconds([&] { sim.runUntil(1e300); });
    return s / double(sim.eventsExecuted()) * 1e9;
}

double
replayJournalNs(std::uint64_t pairs)
{
    rt::App app;
    auto body = [](rt::Kernel &) -> const rt::Task * { return nullptr; };
    const rt::Task *a = app.addTask("a", 1e-3, 0.0, body);
    const rt::Task *b = app.addTask("b", 1e-3, 0.0, body);
    dev::NvMemory fram("fram");
    dev::NvJournaledCell<const rt::Task *> cell(&fram, a);
    pairs = std::max<std::uint64_t>(pairs, 1);
    double s = timeSeconds([&] {
        for (std::uint64_t i = 0; i < pairs; ++i) {
            const rt::Task *cur = cell.get();
            cell.set(cur == a ? b : a);
        }
    });
    sink = sink + double(cell.commits());
    return s / double(pairs) * 1e9;
}

std::uint64_t
powerAdvances(const RunCounts &c)
{
    return 2 * c.workloads + 5 * c.chargeCycles;
}

std::uint64_t
powerQueries(const RunCounts &c)
{
    return c.workloads + 2 * c.chargeCycles;
}

namespace
{

/** Calls per board replay. */
constexpr std::uint64_t kPowerReplayCalls = 20000;

/**
 * The device's call pattern on @p ps: charge to full, boot, then run
 * workloads of @p cadence seconds at @p load watts until the rail
 * browns out; repeat.
 */
void
driveBoard(power::PowerSystem &ps, double load, double cadence,
           CallTimer &adv, CallTimer &query)
{
    double t = ps.time();
    ps.setRailEnabled(false);
    while (adv.count() < kPowerReplayCalls) {
        double to_full = query([&] { return ps.timeToFull(); });
        // Unreachable (no light, say): wait out one cadence.
        t += std::isfinite(to_full) ? to_full : cadence;
        adv([&] {
            ps.advanceTo(t);
            return 0;
        });
        if (!ps.isFull())
            continue;
        ps.setRailEnabled(true);
        ps.setRailLoad(load);
        double mid = 0.5 * (ps.topVoltage() + ps.brownoutVoltageNow());
        sink = sink + query([&] { return ps.timeToVoltage(mid); });
        while (adv.count() < kPowerReplayCalls) {
            double to_bo = query([&] { return ps.timeToBrownout(); });
            bool fails = to_bo < cadence;
            t += fails ? to_bo : cadence;
            adv([&] {
                ps.advanceTo(t);
                return 0;
            });
            if (fails)
                break;
        }
        ps.setRailEnabled(false);
    }
}

apps::AppBoard
appBoard(Rig rig)
{
    switch (rig) {
      case Rig::TempAlarm:
        return apps::AppBoard::TempAlarm;
      case Rig::GestureFast:
        return apps::AppBoard::GestureFast;
      case Rig::GestureCompact:
        return apps::AppBoard::GestureCompact;
      default:
        return apps::AppBoard::CorrSense;
    }
}

/** The CapySat supply of one MCU (apps/capysat.cc's satPowerSystem):
 *  body-mounted panels under orbit light into one EDLC stack. */
std::unique_ptr<power::PowerSystem>
capySatSupply(double panel_share, std::size_t caps)
{
    env::OrbitLight orbit;
    auto ps = std::make_unique<power::PowerSystem>(
        power::PowerSystem::Spec{},
        std::make_unique<power::SolarArray>(
            2, 25e-3 * panel_share, 2.5, orbit.illumination(),
            orbit.changePeriod()));
    ps->addBank("bank", power::parts::cph3225a().parallel(caps));
    return ps;
}

} // namespace

PowerCost
replayPower(const RunSpec &spec, const RunCounts &counts)
{
    PowerCost cost;
    if (!intermittent(spec))
        return cost;
    double cadence = counts.workloads
                         ? counts.timeOn / double(counts.workloads)
                         : 10e-3;
    CallTimer adv, query;
    if (spec.rig == Rig::CapySat) {
        // Sampling MCU (40% of the panels, 3 caps) and comm MCU (60%,
        // 8 caps), half the calls each.
        auto sample = capySatSupply(0.4, 3);
        auto comm = capySatSupply(0.6, 8);
        driveBoard(*sample, dev::msp430fr5969().activePower, cadence,
                   adv, query);
        CallTimer adv2, query2;
        driveBoard(*comm, dev::cc2650().activePower, cadence, adv2,
                   query2);
        cost.advanceNs = 0.5 * (adv.nsPerCall() + adv2.nsPerCall());
        cost.queryNs = 0.5 * (query.nsPerCall() + query2.nsPerCall());
        return cost;
    }
    if (spec.rig == Rig::Checkpoint) {
        // apps::runCheckpointCrashWorkload's rig: 3 mW regulated
        // supply into a 7.5 mF EDLC.
        power::PowerSystem ps(
            power::PowerSystem::Spec{},
            std::make_unique<power::RegulatedSupply>(3e-3, 3.3));
        ps.addBank("b", power::parts::edlc7_5mF());
        driveBoard(ps, dev::msp430fr5969().activePower, cadence, adv,
                   query);
    } else {
        sim::Simulator sim;
        apps::Board board =
            apps::makeBoard(sim, appBoard(spec.rig), spec.policy);
        driveBoard(*board.ps, board.device->mcu().activePower, cadence,
                   adv, query);
    }
    cost.advanceNs = adv.nsPerCall();
    cost.queryNs = query.nsPerCall();
    return cost;
}

EnvCost
replayEnv(const RunSpec &spec, const RunCounts &counts)
{
    EnvCost cost;
    std::uint64_t n = counts.samples;
    if (spec.rig == Rig::Checkpoint || n == 0)
        return cost;
    auto at = [&](std::uint64_t i, double horizon) {
        return (double(i) + 0.5) * horizon / double(n);
    };
    if (spec.rig == Rig::CapySat) {
        env::OrbitLight orbit;
        double horizon = spec.horizon * orbit.spec().orbitPeriod;
        std::uint64_t q = counts.envQueries;
        cost.querySeconds = timeSeconds([&] {
            std::uint64_t lit = 0;
            for (std::uint64_t i = 0; i < q; ++i)
                lit += orbit.sunlit((double(i) + 0.5) * horizon /
                                    double(q));
            sink = sink + double(lit);
        });
        return cost;
    }

    const env::EventSchedule &sched = *spec.schedule;
    // The sample task's rig lookups, as the app makes them.
    if (spec.rig == Rig::TempAlarm) {
        env::ThermalRig rig(sched);
        cost.querySeconds = timeSeconds([&] {
            double acc = 0.0;
            for (std::uint64_t i = 0; i < n; ++i) {
                double t = at(i, spec.horizon);
                acc += rig.temperature(t) + rig.alarmEventAt(t);
            }
            sink = sink + acc;
        });
    } else {
        env::Pendulum pendulum(sched);
        bool csr = spec.rig == Rig::CorrSense;
        cost.querySeconds = timeSeconds([&] {
            double acc = 0.0;
            for (std::uint64_t i = 0; i < n; ++i) {
                double t = at(i, spec.horizon);
                acc += csr ? pendulum.fieldStrength(t)
                           : pendulum.eventAt(t);
            }
            sink = sink + acc;
        });
    }
    cost.scoreSeconds = timeSeconds([&] {
        env::Scoreboard sb(sched);
        for (std::uint64_t i = 0; i < n; ++i)
            sb.recordSample(at(i, spec.horizon));
        auto intervals = sb.sampleIntervals();
        auto summary = sb.summarize();
        sink = sink + double(intervals.size()) + summary.fracCorrect;
    });
    return cost;
}

double
auditShare(const std::vector<RunSpec> &runs)
{
    std::vector<RunSpec> audited;
    for (const RunSpec &r : runs)
        if (r.faults && r.faults->audit)
            audited.push_back(r);
    if (audited.empty())
        return 0.0;
    // Up to 64 replicas spread over the set, each run with its
    // auditor and without, in alternating order over three rounds.
    constexpr std::size_t kPairs = 64;
    std::size_t stride = std::max<std::size_t>(1, audited.size() / kPairs);
    double on = 0.0, off = 0.0;
    for (int round = 0; round < 3; ++round) {
        for (std::size_t i = 0; i < audited.size(); i += stride) {
            RunSpec with = audited[i];
            RunSpec without = with;
            without.faults->audit = false;
            auto time_on = [&] { on += timeSeconds([&] { execute(with); }); };
            auto time_off = [&] {
                off += timeSeconds([&] { execute(without); });
            };
            if (round % 2) {
                time_off();
                time_on();
            } else {
                time_on();
                time_off();
            }
        }
    }
    return 1.0 - off / on;
}

double
runnerSpeedup(const std::vector<RunSpec> &runs, unsigned threads)
{
    auto pass = [&](unsigned n) {
        sim::BatchRunner pool(n);
        return timeSeconds([&] {
            auto out = pool.map(runs.size(), [&](std::size_t i) {
                return execute(runs[i]).digest;
            });
            sink = sink + double(out.size());
        });
    };
    double serial = pass(1);
    return serial / pass(threads);
}

} // namespace e2e
