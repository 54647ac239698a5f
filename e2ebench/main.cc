/**
 * @file
 * End-to-end simulator benchmark program.
 *
 *   e2ebench --workload fig08|capysat|crash --seed N --seconds S
 *            --trace 0|1 [--pins FILE] [--out DIR]
 *   e2ebench --pin --workload W --seed N [--pins FILE]
 *
 * --trace 0 measures the end-to-end metrics on one thread with no
 * spans recorded: whole run sets repeat for S seconds (at least three
 * times), each preceded by five timed input builds. Every run and
 * build is timed relative to the host's speed at that moment (see
 * HostReference); wall_s sums each run's median relative time over
 * the passes, setup_s is the median relative build.
 *
 * --trace 1 is the separate traced pass: for half of S it repeats
 * rounds of an untraced run set, a traced one (a span around every
 * apps::run* call) and the layer replays (layers.hh), keeping each
 * side's best; it prints the per-layer metrics and the tracing
 * overhead, and writes the spans as Chrome trace-event JSON to
 * DIR/trace-<workload>-<seed>.json.
 *
 * Every pass checks every run's output digest against the pinned
 * digests for (workload, seed) when the pin file has them, and
 * against the first pass otherwise; a mismatch or an audit
 * violation counts the run as failed. The last stdout line is the
 * result object; DIR/runs.jsonl gets a fuller record of the run.
 * --pin prints the pin line for one (workload, seed).
 */

#include <sched.h>

#include <algorithm>
#include <array>
#include <cinttypes>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <exception>
#include <functional>
#include <map>
#include <memory>
#include <queue>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "layers.hh"
#include "sim/logging.hh"
#include "spans.hh"
#include "workloads.hh"

using namespace e2e;

namespace
{

struct Options
{
    std::string workload;
    std::uint64_t seed = 20180324;  // the paper's Fig. 8 seed
    double seconds = 10.0;
    bool trace = false;
    bool pin = false;
    std::string pins = "e2ebench/pins.txt";
    std::string out = ".bench_build/e2ebench";
};

double
median(std::vector<double> v)
{
    if (v.empty())
        return 0.0;
    std::sort(v.begin(), v.end());
    std::size_t n = v.size();
    return n % 2 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

/** Nearest-rank quantile of @p v, q in [0, 1]. */
double
quantile(std::vector<double> v, double q)
{
    if (v.empty())
        return 0.0;
    std::sort(v.begin(), v.end());
    std::size_t k = std::size_t(std::ceil(q * double(v.size())));
    return v[std::min(v.size(), std::max<std::size_t>(k, 1)) - 1];
}

/** A metric as printed: value plus unit. */
struct Metric
{
    std::string name;
    double value;
    std::string unit;
};

std::string
jsonNumber(double v)
{
    if (!std::isfinite(v))
        return "null";
    char buf[40];
    std::snprintf(buf, sizeof buf, "%.17g", v);
    return buf;
}

std::string
jsonString(const std::string &s)
{
    std::string out = "\"";
    for (char c : s) {
        if (c == '"' || c == '\\')
            out += '\\';
        out += c;
    }
    return out + "\"";
}

std::string
metricsJson(const std::vector<Metric> &ms)
{
    std::string out = "{";
    for (std::size_t i = 0; i < ms.size(); ++i) {
        out += (i ? ", " : "") + jsonString(ms[i].name) +
               ": {\"value\": " + jsonNumber(ms[i].value) +
               ", \"unit\": " + jsonString(ms[i].unit) + "}";
    }
    return out + "}";
}

/** CPUs this process may run on, as a list ("0-3", "1"). */
std::string
allowedCpus()
{
    cpu_set_t set;
    CPU_ZERO(&set);
    if (sched_getaffinity(0, sizeof set, &set) != 0)
        return "?";
    std::string out;
    for (int c = 0; c < CPU_SETSIZE;) {
        if (!CPU_ISSET(c, &set)) {
            ++c;
            continue;
        }
        int end = c;
        while (end + 1 < CPU_SETSIZE && CPU_ISSET(end + 1, &set))
            ++end;
        out += (out.empty() ? "" : ",") + std::to_string(c) +
               (end > c ? "-" + std::to_string(end) : "");
        c = end + 1;
    }
    return out;
}

/** Peak resident set of this process image, from VmHWM: unlike
 *  getrusage's ru_maxrss it does not carry over the high-water mark
 *  of the process that exec'd us. */
double
peakRssMb()
{
    std::FILE *f = std::fopen("/proc/self/status", "r");
    if (!f)
        throw std::runtime_error("cannot read /proc/self/status");
    char line[256];
    double kib = 0.0;
    while (std::fgets(line, sizeof line, f))
        if (std::strncmp(line, "VmHWM:", 6) == 0)
            kib = std::strtod(line + 6, nullptr);
    std::fclose(f);
    return kib / 1024.0;
}

/**
 * Host-speed reference. On a shared host this code's speed swings by
 * up to 2x as neighbours load the machine, in spells from milliseconds
 * to minutes, often through a whole run; best times then depend on
 * whether a run happened to see an unloaded spell as long as its
 * longest simulation. The reference is a fixed kernel of this file's
 * own, with no simulator code in it, written the way the simulator is
 * (see kernel()), so that load slows it about as much as it slows the
 * simulator. It is timed between the items (runs, input builds) of a
 * measurement, at most every kGap, and once after the last, so every
 * item lies between two samples. An item's relative time is its host
 * time over the mean of those two samples, times the kernel's unloaded
 * time: the item's host time at the host speed the kernel stands for.
 * A change to the simulator cannot move the reference, and nothing is
 * kept from one run to the next.
 */
class HostReference
{
  public:
    /** The kernel's time on an unloaded 4-vCPU Xeon VM, host s. */
    static constexpr double kNominal = 0.0016;
    /** Shortest host time between two samples, s. */
    static constexpr double kGap = 0.02;

    HostReference()
    {
        for (std::uint32_t i = 0; i < 256; ++i) {
            std::uint32_t c = i;
            for (int k = 0; k < 8; ++k)
                c = (c & 1u) ? 0xedb88320u ^ (c >> 1) : c >> 1;
            table[i] = c;
        }
        sample();
    }

    /** Call @p fn as one timed item, sampling the kernel first when
     *  the last sample is older than kGap; returns the item's id. */
    template <class Fn>
    std::size_t
    time(Fn &&fn)
    {
        if (seconds(last, Clock::now()) >= kGap)
            sample();
        Clock::time_point t0 = Clock::now();
        fn();
        items.push_back({seconds(t0, Clock::now()), samples.size() - 1});
        return items.size() - 1;
    }

    /** Host s of item @p id. */
    double host(std::size_t id) const { return items[id].host; }

    /** Take the sample after the last item. */
    void close() { sample(); }

    /** Relative time of item @p id, s; only after close(). */
    double
    relative(std::size_t id) const
    {
        const Item &it = items[id];
        return it.host * kNominal /
               (0.5 * (samples[it.before] + samples[it.before + 1]));
    }

    /** Median sample, host s. */
    double medianSample() const { return median(samples); }

    std::size_t sampleCount() const { return samples.size(); }

  private:
    static constexpr int kTasks = 48;
    static constexpr int kEvents = 12000;

    struct Item
    {
        double host;         ///< host s
        std::size_t before;  ///< the sample just before it
    };

    struct Event
    {
        double time;
        std::uint32_t seq;
        std::function<void()> fire;
    };

    struct Later
    {
        bool
        operator()(const Event &a, const Event &b) const
        {
            return a.time > b.time || (a.time == b.time && a.seq > b.seq);
        }
    };

    void
    sample()
    {
        Clock::time_point t0 = Clock::now();
        sink = sink + kernel();
        last = Clock::now();
        samples.push_back(seconds(t0, last));
    }

    std::uint64_t
    next()
    {
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        return x;
    }

    /**
     * A discrete-event loop like the simulator's, none of its code:
     * kTasks self-rescheduling tasks on a binary heap of events whose
     * std::function callbacks capture more than fits inline (so every
     * event allocates), each firing one of eight small jobs: a
     * std::map update with exp(), a vector append, a table lookup, a
     * sqrt(), and so on. An earlier kernel of table CRCs, a heap and
     * exp() in a tight loop tracked the simulator's slowdown under load
     * much less closely.
     */
    std::uint64_t
    kernel()
    {
        std::priority_queue<Event, std::vector<Event>, Later> queue;
        double now = 0.0;
        std::uint32_t seq = 0;
        std::map<std::uint32_t, double> state;
        std::vector<std::uint64_t> log;
        std::uint64_t acc = 0;
        std::function<void(std::uint32_t)> arm = [&](std::uint32_t k) {
            double a = double(k) * 0.37;
            double b = double(next() & 0xfffu) * 1e-4;
            std::uint64_t c = next();
            queue.push({now + 0.001 + b, seq++, [&, k, a, b, c] {
                            switch ((c + k) & 7u) {
                            case 0: state[k] += a * std::exp(-b); break;
                            case 1: log.push_back(c ^ k); break;
                            case 2: acc += state.size() * c; break;
                            case 3: acc ^= table[c & 0xffu] + k; break;
                            case 4: state[std::uint32_t(c & 63u)] = b; break;
                            case 5: acc += log.empty() ? 0 : log.back(); break;
                            case 6:
                                acc += std::uint64_t(std::sqrt(a + b) * 1e6);
                                break;
                            default: acc = acc * 31 + k; break;
                            }
                            if (log.size() > 4096)
                                log.clear();
                            arm(k);
                        }});
        };
        for (std::uint32_t k = 0; k < kTasks; ++k)
            arm(k);
        for (int e = 0; e < kEvents; ++e) {
            Event ev = queue.top();
            queue.pop();
            now = ev.time;
            ev.fire();
        }
        return acc + log.size();
    }

    std::array<std::uint32_t, 256> table{};
    std::uint64_t x = 0x9e3779b97f4a7c15ull;
    volatile std::uint64_t sink = 0;
    Clock::time_point last;
    std::vector<double> samples;  ///< host s
    std::vector<Item> items;
};

/** Results of one pass over the run set. */
struct Pass
{
    std::vector<RunResult> results;
    std::vector<double> runSeconds;
};

/** Run every run of @p in once, in order, spanning each call when
 *  @p trace is non-null. */
Pass
runSet(const Inputs &in, SpanRecorder *trace)
{
    Pass p;
    p.results.reserve(in.runs.size());
    p.runSeconds.reserve(in.runs.size());
    ScopedSpan set_span(trace, "runset");
    for (std::size_t i = 0; i < in.runs.size(); ++i) {
        const RunSpec &spec = in.runs[i];
        Clock::time_point t0 = Clock::now();
        {
            ScopedSpan span(trace, std::string(entryPoint(spec.rig)) +
                                       " " + spec.name,
                            long(i));
            p.results.push_back(execute(spec));
        }
        p.runSeconds.push_back(seconds(t0, Clock::now()));
    }
    return p;
}

/** Tallies runs attempted and failed over every pass. */
class Checker
{
  public:
    explicit Checker(const Inputs &in) : inputs(in) {}

    /** Check @p p: its digests must match the pinned groups (or, for
     *  an unpinned seed, the first pass's), and its audits be clean. */
    void
    check(const Pass &p)
    {
        std::vector<std::uint64_t> digests;
        for (const RunResult &r : p.results)
            digests.push_back(r.digest);
        std::vector<std::uint64_t> groups = groupDigests(digests);
        if (reference.empty())
            reference = inputs.pinned.empty() ? groups : inputs.pinned;
        std::size_t n = p.results.size();
        for (std::size_t i = 0; i < n; ++i) {
            std::size_t g = pinGroup(i, n);
            bool bad = groups.size() != reference.size() ||
                       groups[g] != reference[g] ||
                       p.results[i].counts.violations != 0;
            ++attempted;
            if (bad) {
                ++failed;
                if (firstFailure.empty())
                    firstFailure = inputs.runs[i].name +
                                   (p.results[i].counts.violations
                                        ? ": audit violations\n" +
                                              p.results[i].violationText
                                        : ": output digest mismatch");
            }
        }
    }

    std::uint64_t attempted = 0;
    std::uint64_t failed = 0;
    std::string firstFailure;

  private:
    const Inputs &inputs;
    std::vector<std::uint64_t> reference;
};

/** What both modes print and record. */
struct Report
{
    std::vector<Metric> metrics;
    /** Extra record-only JSON members ("key": value, ...). */
    std::string detail;
};

/** The simulated Fig. 8 accuracy next to the paper's quoted values
 *  (ungated: the repo holds no hardware measurements, so these
 *  published figures are the model's only validation). */
std::string
accuracyDetail(const Inputs &in, const Pass &ref)
{
    struct Quote
    {
        const char *app;
        double capyp, fixed;
    };
    const Quote quotes[4] = {{"ta", 0.98, 0.46},
                             {"grcf", 0.76, 0.18},
                             {"grcc", 0.75, 0.18},
                             {"csr", 0.89, 0.56}};
    std::string out = "\"accuracy\": {";
    std::fprintf(stderr, "Fig. 8 accuracy (simulated vs paper; "
                         "csr paper Capy-P is >=89%%):\n");
    for (const Quote &q : quotes) {
        double capyp = -1.0, fixed = -1.0;
        for (std::size_t i = 0; i < in.runs.size(); ++i) {
            const std::string &n = in.runs[i].name;
            if (n == std::string(q.app) + "_capyp")
                capyp = ref.results[i].fracCorrect;
            if (n == std::string(q.app) + "_fixed")
                fixed = ref.results[i].fracCorrect;
        }
        std::fprintf(stderr,
                     "  %-5s Capy-P %5.1f%% (paper %2.0f%%)   "
                     "Fixed %5.1f%% (paper %2.0f%%)\n",
                     q.app, 100 * capyp, 100 * q.capyp, 100 * fixed,
                     100 * q.fixed);
        out += std::string(out.back() == '{' ? "" : ", ") +
               jsonString(q.app) + ": {\"capyp\": " +
               jsonNumber(capyp) + ", \"capyp_paper\": " +
               jsonNumber(q.capyp) + ", \"fixed\": " +
               jsonNumber(fixed) + ", \"fixed_paper\": " +
               jsonNumber(q.fixed) + "}";
    }
    return out + "}";
}

/** Per-run median relative ms, for run sets small enough to list. */
std::string
runTimesDetail(const Inputs &in, const std::vector<double> &run_s)
{
    std::string out = "\"run_ms\": {";
    if (in.runs.size() <= 32) {
        for (std::size_t i = 0; i < in.runs.size(); ++i)
            out += std::string(i ? ", " : "") +
                   jsonString(in.runs[i].name) + ": " +
                   jsonNumber(run_s[i] * 1e3);
    }
    return out + "}";
}

Report
measureEndToEnd(const Options &opt, std::unique_ptr<Checker> &checker,
                Inputs &in)
{
    in = buildInputs(opt.workload, opt.seed, opt.pins, nullptr);
    checker = std::make_unique<Checker>(in);
    std::string accuracy;

    // Passes repeat while the next one still fits in the budget, at
    // least three times. Before each, the inputs are built again,
    // timed, so set-up samples span the run like the passes do.
    constexpr int kSetupsPerPass = 5;
    HostReference ref;
    std::vector<std::size_t> setups;
    std::vector<std::vector<std::size_t>> runs(in.runs.size());
    std::vector<double> set_walls;
    std::uint64_t events = 0;
    double last_pass = 0.0, peak_mb = 0.0;
    Clock::time_point start = Clock::now();
    while (set_walls.size() < 3 ||
           seconds(start, Clock::now()) + last_pass < opt.seconds) {
        Clock::time_point t0 = Clock::now();
        for (int k = 0; k < kSetupsPerPass; ++k) {
            Inputs again;
            setups.push_back(ref.time([&] {
                again = buildInputs(opt.workload, opt.seed, opt.pins,
                                    nullptr);
            }));
        }
        Pass p;
        double wall = 0.0;
        for (std::size_t i = 0; i < in.runs.size(); ++i) {
            runs[i].push_back(ref.time(
                [&] { p.results.push_back(execute(in.runs[i])); }));
            wall += ref.host(runs[i].back());
        }
        checker->check(p);
        events = 0;
        for (const RunResult &r : p.results)
            events += r.counts.events;
        if (set_walls.empty()) {
            // Later passes repeat the same runs; only the timing's own
            // records, which grow with the passes, would add to it.
            peak_mb = peakRssMb();
            if (opt.workload == "fig08")
                accuracy = accuracyDetail(in, p);
        }
        set_walls.push_back(wall);
        last_pass = seconds(t0, Clock::now());
    }
    ref.close();

    // Each run counts its median relative time over the passes, and
    // set-up the median relative build: under a load that comes and
    // goes, a run's best time depends on whether an unloaded spell as
    // long as the run fell in this run's window, while the median of
    // times taken relative to the host's speed at that moment does
    // not.
    auto relative = [&](const std::vector<std::size_t> &ids) {
        std::vector<double> v;
        for (std::size_t id : ids)
            v.push_back(ref.relative(id));
        return median(v);
    };
    std::vector<double> run_s;
    double wall = 0.0;
    for (const std::vector<std::size_t> &ids : runs) {
        run_s.push_back(relative(ids));
        wall += run_s.back();
    }
    double setup = relative(setups);
    std::vector<double> setup_host;
    for (std::size_t id : setups)
        setup_host.push_back(ref.host(id));
    Report rep;
    rep.metrics = {
        {"wall_s", wall, "s"},
        {"events_per_s", double(events) / wall, "1/s"},
        {"setup_s", setup, "s"},
        {"peak_rss_mb", peak_mb, "MB"},
    };
    rep.detail = "\"passes\": " + std::to_string(set_walls.size()) +
                 ", \"setup_samples\": " + std::to_string(setups.size()) +
                 ", \"runs_per_set\": " + std::to_string(in.runs.size()) +
                 ", \"events_per_set\": " + std::to_string(events) +
                 ", \"host_wall_s_median\": " + jsonNumber(median(set_walls)) +
                 ", \"host_setup_s_median\": " +
                 jsonNumber(median(setup_host)) +
                 ", \"ref_samples\": " + std::to_string(ref.sampleCount()) +
                 ", \"ref_median_s\": " + jsonNumber(ref.medianSample()) +
                 ", \"ref_nominal_s\": " +
                 jsonNumber(HostReference::kNominal) +
                 ", \"oracle_ms\": " + jsonNumber(in.oracleSeconds * 1e3) +
                 ", \"pinned\": " + (in.pinned.empty() ? "false" : "true") +
                 ", " + runTimesDetail(in, run_s);
    if (!accuracy.empty())
        rep.detail += ", " + accuracy;
    std::fprintf(stderr,
                 "%s seed %" PRIu64 ": wall %.4f s (host: median pass "
                 "%.4f, reference %.3f x nominal) over %zu passes (%zu "
                 "runs, %" PRIu64 " events each), setup %.6f s\n",
                 opt.workload.c_str(), opt.seed, wall, median(set_walls),
                 ref.medianSample() / HostReference::kNominal,
                 set_walls.size(), in.runs.size(), events, setup);
    return rep;
}

/** One round of layer replays over a run set, in host seconds per
 *  run set (or ns per call). */
struct LayerCosts
{
    double dispatchNs = 0.0;
    double journalNs = 0.0;
    double advanceS = 0.0, queryS = 0.0;
    std::uint64_t advances = 0, queries = 0;
    double envS = 0.0, envQueryS = 0.0;

    /** Field-wise best of two rounds. */
    void
    keepBest(const LayerCosts &o)
    {
        dispatchNs = std::min(dispatchNs, o.dispatchNs);
        journalNs = std::min(journalNs, o.journalNs);
        advanceS = std::min(advanceS, o.advanceS);
        queryS = std::min(queryS, o.queryS);
        envS = std::min(envS, o.envS);
        envQueryS = std::min(envQueryS, o.envQueryS);
    }
};

LayerCosts
replayLayers(const Inputs &in, const std::vector<RunCounts> &counts,
             const RunCounts &total, SpanRecorder &rec)
{
    LayerCosts lc;
    {
        ScopedSpan span(&rec, "layer.sim.dispatch");
        lc.dispatchNs = replayDispatchNs(std::min<std::uint64_t>(
            std::max<std::uint64_t>(total.events, 1), 1000000));
    }
    {
        ScopedSpan span(&rec, "layer.dev.journal");
        lc.journalNs = replayJournalNs(std::min<std::uint64_t>(
            std::max<std::uint64_t>(total.transitions, 1), 1000000));
    }
    {
        ScopedSpan span(&rec, "layer.power");
        // One replay per distinct board; runs on it share its costs.
        std::map<std::pair<int, int>, PowerCost> boards;
        for (std::size_t i = 0; i < in.runs.size(); ++i) {
            const RunSpec &spec = in.runs[i];
            const RunCounts &c = counts[i];
            if (!intermittent(spec))
                continue;
            auto key = std::make_pair(int(spec.rig), int(spec.policy));
            auto it = boards.find(key);
            if (it == boards.end()) {
                ScopedSpan board(&rec, "layer.power " + spec.name,
                                 long(i));
                it = boards.emplace(key, replayPower(spec, c)).first;
            }
            lc.advanceS +=
                it->second.advanceNs * 1e-9 * double(powerAdvances(c));
            lc.queryS +=
                it->second.queryNs * 1e-9 * double(powerQueries(c));
            lc.advances += powerAdvances(c);
            lc.queries += powerQueries(c);
        }
    }
    {
        ScopedSpan span(&rec, "layer.env");
        for (std::size_t i = 0; i < in.runs.size(); ++i) {
            EnvCost e = replayEnv(in.runs[i], counts[i]);
            lc.envQueryS += e.querySeconds;
            lc.envS += e.querySeconds + e.scoreSeconds;
        }
    }
    return lc;
}

Report
measureLayers(const Options &opt, SpanRecorder &rec,
              std::unique_ptr<Checker> &checker, Inputs &in)
{
    Clock::time_point start = Clock::now();
    {
        ScopedSpan span(&rec, "setup");
        in = buildInputs(opt.workload, opt.seed, opt.pins, &rec);
    }
    checker = std::make_unique<Checker>(in);

    // For half the budget, rounds of an untraced pass, a traced pass
    // and the layer replays. Every side keeps its best, so shares
    // compare like host states.
    std::size_t n = in.runs.size();
    std::vector<double> untraced(n, 1e300), traced(n, 1e300), run_ms;
    std::vector<RunCounts> counts;
    RunCounts total;
    LayerCosts lc;
    std::size_t passes = 0;
    do {
        Pass plain = runSet(in, nullptr);
        checker->check(plain);
        if (counts.empty()) {
            for (const RunResult &r : plain.results) {
                counts.push_back(r.counts);
                total += r.counts;
            }
        }
        Pass p = runSet(in, &rec);
        checker->check(p);
        for (std::size_t i = 0; i < n; ++i) {
            untraced[i] = std::min(untraced[i], plain.runSeconds[i]);
            traced[i] = std::min(traced[i], p.runSeconds[i]);
            run_ms.push_back(p.runSeconds[i] * 1e3);
        }
        LayerCosts round = replayLayers(in, counts, total, rec);
        if (passes++ == 0)
            lc = round;
        else
            lc.keepBest(round);
    } while (seconds(start, Clock::now()) < 0.5 * opt.seconds);
    double apps_s = 0.0, plain_s = 0.0;
    for (std::size_t i = 0; i < n; ++i) {
        apps_s += traced[i];
        plain_s += untraced[i];
    }

    double audit_share = 0.0;
    {
        ScopedSpan span(&rec, "layer.rt.audit");
        audit_share = auditShare(in.runs);
    }
    unsigned nproc = std::max(1u, std::thread::hardware_concurrency());
    double speedup = 0.0;
    {
        ScopedSpan span(&rec, "layer.sim.runner");
        speedup = runnerSpeedup(in.runs, nproc);
    }
    double dispatch_ns = lc.dispatchNs, journal_ns = lc.journalNs;
    double adv_s = lc.advanceS, query_s = lc.queryS;
    double power_s = adv_s + query_s, env_s = lc.envS;
    double env_query_s = lc.envQueryS;
    std::uint64_t advances = lc.advances, queries = lc.queries;

    auto share = [&](double s) { return s / apps_s; };
    auto ratio = [](double a, double b) { return b > 0.0 ? a / b : 0.0; };
    double sim_share = share(dispatch_ns * 1e-9 * double(total.events));
    double dev_share =
        share(journal_ns * 1e-9 * double(total.transitions));
    double power_share = share(power_s);
    double env_share = share(env_s);

    Report rep;
    rep.metrics = {
        {"apps.ms", apps_s * 1e3, "ms"},
        {"apps.run_ms_p50", quantile(run_ms, 0.5), "ms"},
        {"apps.run_ms_p99", quantile(run_ms, 0.99), "ms"},
        {"sim.events", double(total.events), "count"},
        {"sim.dispatch_ns", dispatch_ns, "ns"},
        {"sim.share", sim_share, "ratio"},
        {"sim.runner_speedup", speedup, "ratio"},
        {"dev.journal_ns", journal_ns, "ns"},
        {"dev.journal_share", dev_share, "ratio"},
        {"dev.boots", double(total.boots), "count"},
        {"dev.power_failures", double(total.powerFailures), "count"},
        {"dev.torn_commits", double(total.tornCommits), "count"},
        {"dev.torn_recoveries", double(total.tornRecoveries), "count"},
        {"rt.transitions", double(total.transitions), "count"},
        {"rt.task_restarts", double(total.restarts), "count"},
        {"rt.useful_attempt_ratio",
         ratio(double(total.completions),
               double(total.completions + total.restarts)),
         "ratio"},
        {"rt.audit_checks", double(total.auditChecks), "count"},
        {"rt.audit_share", audit_share, "ratio"},
        {"core.reconfigurations", double(total.reconfigurations),
         "count"},
        {"core.recharge_pauses", double(total.rechargePauses), "count"},
        {"core.burst_recharges", double(total.burstRecharges), "count"},
        {"power.advance_ns", ratio(adv_s * 1e9, double(advances)), "ns"},
        {"power.query_ns", ratio(query_s * 1e9, double(queries)), "ns"},
        {"power.share", power_share, "ratio"},
        {"power.charge_cycles", double(total.chargeCycles), "count"},
        {"env.query_ns",
         ratio(env_query_s * 1e9, double(total.envQueries)), "ns"},
        {"env.ms", env_s * 1e3, "ms"},
        {"env.share", env_share, "ratio"},
        {"env.samples", double(total.samples), "count"},
        {"trace.overhead_ms", (apps_s - plain_s) * 1e3, "ms"},
        {"trace.overhead_share", (apps_s - plain_s) / plain_s, "ratio"},
        {"unattributed_share",
         1.0 - sim_share - dev_share - power_share - env_share -
             audit_share,
         "ratio"},
    };
    rep.detail = "\"traced_passes\": " + std::to_string(passes) +
                 ", \"untraced_set_s\": " + jsonNumber(plain_s) +
                 ", \"nproc\": " + std::to_string(nproc);

    std::string path = opt.out + "/trace-" + opt.workload + "-" +
                       std::to_string(opt.seed) + ".json";
    if (!rec.writeChromeTrace(path))
        throw std::runtime_error("cannot write " + path);
    std::fprintf(stderr, "trace: %zu spans -> %s\n", rec.spans().size(),
                 path.c_str());
    return rep;
}

int
usage()
{
    std::fprintf(stderr,
                 "usage: e2ebench --workload fig08|capysat|crash "
                 "--seed N --seconds S --trace 0|1\n"
                 "                [--pins FILE] [--out DIR]\n"
                 "       e2ebench --pin --workload W --seed N "
                 "[--pins FILE]\n");
    return 2;
}

int
pinLine(const Options &opt)
{
    Inputs in = buildInputs(opt.workload, opt.seed, "", nullptr);
    Pass p = runSet(in, nullptr);
    std::vector<std::uint64_t> digests;
    for (const RunResult &r : p.results) {
        if (r.counts.violations != 0) {
            std::fprintf(stderr, "refusing to pin: audit violations\n%s",
                         r.violationText.c_str());
            return 1;
        }
        digests.push_back(r.digest);
    }
    std::printf("%s %" PRIu64, opt.workload.c_str(), opt.seed);
    for (std::uint64_t g : groupDigests(digests))
        std::printf(" %016" PRIx64, g);
    std::printf("\n");
    return 0;
}

} // namespace

int
main(int argc, char **argv)
{
    capy::setQuiet(true);
    Options opt;
    for (int i = 1; i < argc; ++i) {
        std::string arg = argv[i];
        if (arg == "--pin") {
            opt.pin = true;
            continue;
        }
        if (i + 1 >= argc)
            return usage();
        const char *val = argv[++i];
        if (arg == "--workload")
            opt.workload = val;
        else if (arg == "--seed")
            opt.seed = std::strtoull(val, nullptr, 10);
        else if (arg == "--seconds")
            opt.seconds = std::strtod(val, nullptr);
        else if (arg == "--trace")
            opt.trace = std::strcmp(val, "0") != 0;
        else if (arg == "--pins")
            opt.pins = val;
        else if (arg == "--out")
            opt.out = val;
        else
            return usage();
    }
    const auto &names = workloadNames();
    if (std::find(names.begin(), names.end(), opt.workload) ==
            names.end() ||
        !(opt.seconds > 0.0))
        return usage();

    try {
        if (opt.pin)
            return pinLine(opt);

        Inputs in;
        std::unique_ptr<Checker> checker;
        SpanRecorder rec;
        Report rep = opt.trace ? measureLayers(opt, rec, checker, in)
                               : measureEndToEnd(opt, checker, in);
        bool correct = checker->failed == 0;
        if (!correct)
            std::fprintf(stderr, "FAILED %" PRIu64 " of %" PRIu64
                                 " runs; first: %s\n",
                         checker->failed, checker->attempted,
                         checker->firstFailure.c_str());

        std::string result =
            std::string("{\"correct\": ") + (correct ? "true" : "false") +
            ", \"attempted\": " + std::to_string(checker->attempted) +
            ", \"failed\": " + std::to_string(checker->failed) +
            ", \"metrics\": " + metricsJson(rep.metrics) + "}";

        std::string record =
            "{\"workload\": " + jsonString(opt.workload) +
            ", \"seed\": " + std::to_string(opt.seed) +
            ", \"trace\": " + (opt.trace ? "1" : "0") +
            ", \"seconds\": " + jsonNumber(opt.seconds) +
            ", \"build_type\": " + jsonString(E2E_BUILD_TYPE) +
            ", \"compiler\": " + jsonString(E2E_COMPILER) +
            ", \"nproc\": " +
            std::to_string(std::thread::hardware_concurrency()) +
            ", \"cpus_allowed\": " + jsonString(allowedCpus()) +
            ", \"result\": " + result + ", " + rep.detail + "}\n";
        std::string log = opt.out + "/runs.jsonl";
        if (std::FILE *f = std::fopen(log.c_str(), "a")) {
            std::fputs(record.c_str(), f);
            std::fclose(f);
        }
        std::printf("%s\n", result.c_str());
        return 0;
    } catch (const std::exception &e) {
        std::fprintf(stderr, "e2ebench: %s\n", e.what());
        return 1;
    }
}
