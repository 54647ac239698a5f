/**
 * @file
 * Ablation (§5.2): normally-open vs normally-closed switch variants
 * under input power weak enough that large-bank charges outlive the
 * latch retention. NO reverts to the small default bank (fast
 * recovery, but wasted boots and redistribution losses when the
 * configuration is re-applied); NC reverts to maximum capacity (slow,
 * but the task is guaranteed to complete on the first boot after the
 * charge).
 */

#include <cstdio>
#include <memory>

#include "apps/experiment.hh"
#include "bench_util.hh"
#include "core/runtime.hh"
#include "dev/device.hh"
#include "power/parts.hh"
#include "rt/kernel.hh"
#include "sim/logging.hh"
#include "sim/simulator.hh"
#include "sim/stats.hh"

using namespace capy;
using namespace capy::bench;

namespace
{

struct Result
{
    double firstTaskAt = -1.0;
    std::uint64_t boots = 0;
    std::uint64_t reversions = 0;
    std::uint64_t reconfigs = 0;
    std::uint64_t powerFailures = 0;
};

Result
run(power::SwitchKind kind, double harvest_w)
{
    Result out;
    sim::Simulator simulator;
    power::PowerSystem::Spec spec;
    auto ps = std::make_unique<power::PowerSystem>(
        spec,
        std::make_unique<power::RegulatedSupply>(harvest_w, 3.3));
    ps->addBank("small", power::parts::x5r100uF().parallel(4));
    power::SwitchSpec sw;
    sw.kind = kind;
    int big = ps->addSwitchedBank(
        "big", power::parts::edlc7_5mF().parallel(6), sw);
    power::PowerSystem *ps_raw = ps.get();
    dev::Device device(simulator, std::move(ps), dev::msp430fr5969(),
                       dev::Device::PowerMode::Intermittent);

    core::ModeRegistry registry;
    core::ModeId small_mode = registry.define("small", {});
    core::ModeId big_mode = registry.define("big", {big});
    (void)small_mode;

    rt::App app;
    // A big atomic task: ~1.5 s of full-power operation, feasible
    // only with the large bank connected and charged.
    rt::Task *task = app.addTask(
        "big-task", 1.5, 0.0, [&](rt::Kernel &k) -> const rt::Task * {
            if (out.firstTaskAt < 0.0)
                out.firstTaskAt = k.now();
            return nullptr;
        });
    rt::Kernel kernel(device, app);
    core::Runtime runtime(kernel, registry, core::Policy::CapyP);
    runtime.annotate(task, core::Annotation::config(big_mode));
    runtime.install();
    kernel.start();
    simulator.runUntil(7200.0);

    out.boots = device.stats().boots;
    out.powerFailures = device.stats().powerFailures;
    out.reversions = ps_raw->bankSwitch(big)->reversions();
    out.reconfigs = runtime.stats().reconfigurations;
    return out;
}

} // namespace

int
main()
{
    setQuiet(true);
    banner("Section 5.2 ablation",
           "normally-open vs normally-closed bank switches");
    const double harvest = 0.45e-3;
    std::printf("harvest: %.2f mW — large-bank charge (~6-8 min) "
                "outlives the ~3 min latch retention\n\n",
                harvest * 1e3);

    const power::SwitchKind kinds[2] = {
        power::SwitchKind::NormallyOpen,
        power::SwitchKind::NormallyClosed};
    auto results = apps::sweepPool().map(2, [&](std::size_t i) {
        return run(kinds[i], harvest);
    });
    const Result &no = results[0];
    const Result &nc = results[1];

    sim::Table t({"variant", "task completed at (s)", "boots",
                  "latch reversions", "switch reconfigs",
                  "power failures"});
    t.addRow({"normally-open (NO)",
              no.firstTaskAt < 0 ? "never" : sim::cell(no.firstTaskAt, 4),
              sim::cell(no.boots), sim::cell(no.reversions),
              sim::cell(no.reconfigs), sim::cell(no.powerFailures)});
    t.addRow({"normally-closed (NC)",
              nc.firstTaskAt < 0 ? "never" : sim::cell(nc.firstTaskAt, 4),
              sim::cell(nc.boots), sim::cell(nc.reversions),
              sim::cell(nc.reconfigs), sim::cell(nc.powerFailures)});
    t.print();

    shapeCheck(no.reversions >= 1,
               "NO: the latch decays during the long charge and the "
               "switch reverts open");
    shapeCheck(no.boots > nc.boots,
               "NO: the small default bank recharges quickly, causing "
               "extra (wasted) boot cycles");
    shapeCheck(nc.firstTaskAt > 0.0,
               "NC: reverting to maximum capacity guarantees the task "
               "eventually completes on a first boot");
    shapeCheck(nc.reversions <= no.reversions,
               "NC state loss is absorbed by the all-connected "
               "default");
    return finish();
}
