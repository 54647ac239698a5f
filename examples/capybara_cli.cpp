/**
 * @file
 * Command-line simulation runner: run any paper application under any
 * power-system policy with chosen seed/horizon and print the run
 * metrics: accuracy, latency, sampling, charging and burst counts.
 *
 * Usage:
 *   capybara_cli --app ta|grc-fast|grc-compact|csr
 *                [--policy pwr|fixed|capy-r|capy-p]   (default all)
 *                [--seed N] [--horizon S] [--events N]
 *
 * Examples:
 *   capybara_cli --app ta
 *   capybara_cli --app grc-fast --policy capy-p --seed 7
 */

#include <strings.h>

#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <optional>
#include <string>
#include <vector>

#include "apps/experiment.hh"
#include "sim/cli.hh"
#include "sim/logging.hh"
#include "sim/stats.hh"

using namespace capy;
using namespace capy::apps;
using namespace capy::core;

namespace
{

constexpr char kUsage[] =
    "usage: capybara_cli --app ta|grc-fast|grc-compact|csr "
    "[--policy pwr|fixed|capy-r|capy-p|all] [--seed N] [--horizon S] "
    "[--events N]\n";

[[noreturn]] void
usage()
{
    std::fputs(kUsage, stderr);
    std::exit(2);
}

struct Options
{
    const PaperApp *app = &kPaperApps[0];
    std::string policy = "all";
    std::uint64_t seed = 2018;
    std::optional<double> horizon;  ///< unset: the app's own
    std::optional<std::uint64_t> events;
};

Options
parse(int argc, char **argv)
{
    Options opt;
    for (int i = 1; i < argc; ++i) {
        auto need = [&](const char *flag) -> const char * {
            if (i + 1 >= argc) {
                std::fprintf(stderr, "%s needs a value\n", flag);
                usage();
            }
            return argv[++i];
        };
        if (!std::strcmp(argv[i], "--app")) {
            const char *name = need("--app");
            opt.app = findPaperApp(name);
            if (!opt.app) {
                std::fprintf(stderr, "unknown app '%s'\n", name);
                usage();
            }
        } else if (!std::strcmp(argv[i], "--policy"))
            opt.policy = need("--policy");
        else if (!std::strcmp(argv[i], "--seed"))
            opt.seed = sim::parseCount(need("--seed"), kUsage);
        else if (!std::strcmp(argv[i], "--horizon"))
            opt.horizon = sim::parseNumber(need("--horizon"), kUsage);
        else if (!std::strcmp(argv[i], "--events")) {
            opt.events = sim::parseCount(need("--events"), kUsage);
            sim::requireAbove(double(*opt.events), 0.0, "--events",
                              kUsage);
        } else
            usage();
    }
    // The event-free start must leave room for the events.
    if (opt.horizon)
        sim::requireAbove(*opt.horizon, opt.app->schedule.eventFree,
                          "--horizon", kUsage);
    return opt;
}

/** The policies @p name selects: one by its name in any case, or all
 *  four. */
std::vector<Policy>
policiesFor(const std::string &name)
{
    std::vector<Policy> out;
    for (Policy p : kPaperPolicies)
        if (name == "all" || !strcasecmp(name.c_str(), policyName(p)))
            out.push_back(p);
    if (out.empty()) {
        std::fprintf(stderr, "unknown policy '%s'\n", name.c_str());
        usage();
    }
    return out;
}

} // namespace

int
main(int argc, char **argv)
{
    setQuiet(true);
    Options opt = parse(argc, argv);
    std::vector<Policy> policies = policiesFor(opt.policy);

    ScheduleSpec spec = opt.app->schedule;
    spec.horizon = opt.horizon.value_or(spec.horizon);
    spec.events = opt.events.value_or(spec.events);
    auto sched = drawSchedule(spec, opt.seed);

    std::printf("%s: %zu events over %.0f s (seed %llu)\n\n",
                opt.app->cliName, sched.size(), spec.horizon,
                (unsigned long long)opt.seed);

    sim::Table t({"system", "correct", "misclassified", "proximity-only",
                  "missed", "latency mean (s)", "samples",
                  "mean charge gap (s)", "boots", "power failures",
                  "bursts", "burst recharges"});
    for (Policy p : policies) {
        RunMetrics m = runApp(*opt.app, p, sched, opt.seed, spec.horizon);
        t.addRow({policyName(p),
                  sim::percentCell(m.summary.fracCorrect),
                  sim::cell(m.summary.misclassified),
                  sim::cell(m.summary.proximityOnly),
                  sim::cell(m.summary.missed),
                  m.summary.latency.count()
                      ? sim::cell(m.summary.latency.mean(), 4)
                      : "-",
                  sim::cell(m.samples), sim::cell(m.chargeSpanMean, 3),
                  sim::cell(m.device.boots),
                  sim::cell(m.device.powerFailures),
                  sim::cell(m.runtime.burstActivations),
                  sim::cell(m.runtime.burstRecharges)});
    }
    t.print();
    return 0;
}
