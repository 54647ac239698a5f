/**
 * @file
 * Exact work counts of the end-to-end benchmark's workloads, for a
 * perf gate that reads no clock.
 *
 * Runs, serially on one thread through the same apps entry points as
 * e2ebench: the Fig. 8 matrix (4 apps x 4 policies) at seed
 * 20180324, one 5-orbit CapySat mission, and one checkpoint-rig
 * replica with a single injected Collapse. Each run prints one line:
 *
 *   events       simulator events
 *   transitions  task commits (Chain transitions; checkpoints on the
 *                checkpoint rig; samples + packets on CapySat, whose
 *                kernels commit one self-transition per body)
 *   gates        pre-task gate calls (rt::Kernel); 0 where the policy
 *                annotates nothing (Pwr, Fixed), which installs no gate
 *   crc          dev::nvCrc32 calls
 *   advances     PowerSystem advance walks; an advance that commits
 *                PowerSystem::runLoad's staged walk is not one
 *   queries      predictive-query walks (one per timeToVoltage call)
 *                and runLoad walks (one per device workload or boot)
 *   phases       phase iterations of the power walker, all uses
 *   solves       crossing-time solves (power::timeToEnergy) in the
 *                power walker; a phase whose step clearly misses its
 *                level and stop (power::stepMisses) takes none
 *   seeks        env::EventSchedule cursor lookups that fell back
 *                to a binary search
 *   cb_events    callback events scheduled (EventQueue::schedule with
 *                a std::function); the device and the fault injector
 *                schedule sim::Events they own, so 0 on every row
 *   inplace      events run in place (sim::Simulator::claimInPlace):
 *                a workload completion that the queue would have run
 *                next anyway; counted in events too
 *   exps         exp(-dt/tau) evaluations of the power solver that no
 *                power::ExpCache served
 *   new          operator new calls, including every std::function
 *                whose capture outgrows its inline storage
 *   heap_peak    peak live bytes requested through operator new
 *                during the run, above those live when it started
 *   out          FNV-1a over the bit patterns of the run's
 *                device(s)' dev::Device::Stats counters and times
 *                (boots through timeCharging; chargeSpans and
 *                chargeSpanMax, summed from the same spans as
 *                timeCharging, are left out), so a change to the
 *                simulated output moves a row even where every
 *                count above stays put
 *
 * The `golden_work_counts` ctest diffs the output with
 * tests/golden/work_counts.txt byte for byte. A change that moves a
 * count on purpose regenerates the file:
 *
 *   build/tests/work_counts > tests/golden/work_counts.txt
 */

#include <algorithm>
#include <bit>
#include <cstddef>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <initializer_list>
#include <new>
#include <string>

#include "apps/capysat.hh"
#include "apps/experiment.hh"
#include "apps/faults.hh"
#include "dev/device.hh"
#include "sim/logging.hh"
#include "sim/work.hh"

namespace
{

std::uint64_t newCalls = 0;
std::size_t liveBytes = 0;
std::size_t peakBytes = 0;

/** Each block carries its requested size in a header this wide, so
 *  an unsized delete can un-count it; the width keeps the block's
 *  alignment. */
constexpr std::size_t kHeader = alignof(std::max_align_t);

} // namespace

void *
operator new(std::size_t size)
{
    ++newCalls;
    auto *base = static_cast<unsigned char *>(std::malloc(size + kHeader));
    if (!base)
        throw std::bad_alloc();
    std::memcpy(base, &size, sizeof size);
    liveBytes += size;
    peakBytes = std::max(peakBytes, liveBytes);
    return base + kHeader;
}

void
operator delete(void *p) noexcept
{
    if (!p)
        return;
    auto *base = static_cast<unsigned char *>(p) - kHeader;
    std::size_t size;
    std::memcpy(&size, base, sizeof size);
    liveBytes -= size;
    std::free(base);
}

void
operator delete(void *p, std::size_t) noexcept
{
    operator delete(p);
}

namespace
{

using namespace capy;

/** Every counter at one instant. */
struct Snapshot
{
    sim::WorkCounts work;
    std::uint64_t news;
    std::size_t live;

    static Snapshot
    now()
    {
        return {sim::workCounts, newCalls, liveBytes};
    }
};

/** FNV-1a over the bit patterns of @p devices' stats, in order. */
std::uint64_t
outputDigest(std::initializer_list<const dev::Device::Stats *> devices)
{
    std::uint64_t h = 0xcbf29ce484222325ull;
    auto add = [&h](std::uint64_t v) {
        for (int i = 0; i < 8; ++i) {
            h ^= (v >> (8 * i)) & 0xff;
            h *= 0x100000001b3ull;
        }
    };
    for (const dev::Device::Stats *d : devices) {
        for (std::uint64_t v :
             {d->boots, d->powerFailures, d->bootFailures,
              d->injectedFailures, d->workloadsCompleted,
              d->workloadsAborted})
            add(v);
        add(std::bit_cast<std::uint64_t>(d->timeOn));
        add(std::bit_cast<std::uint64_t>(d->timeCharging));
    }
    return h;
}

struct Counts
{
    std::uint64_t events;
    std::uint64_t transitions;
    std::uint64_t out;  ///< outputDigest() of the run's device(s)
};

/** Run @p run and print its line; @p run returns its Counts. */
template <typename Run>
void
measure(const std::string &name, Run &&run)
{
    Snapshot a = Snapshot::now();
    peakBytes = liveBytes;
    auto [events, transitions, out] = run();
    Snapshot b = Snapshot::now();
    auto delta = [](std::uint64_t x, std::uint64_t y) {
        return (unsigned long long)(y - x);
    };
    std::printf("%-14s events=%llu transitions=%llu gates=%llu "
                "crc=%llu advances=%llu queries=%llu phases=%llu "
                "solves=%llu seeks=%llu cb_events=%llu inplace=%llu "
                "exps=%llu new=%llu heap_peak=%llu out=%016llx\n",
                name.c_str(), (unsigned long long)events,
                (unsigned long long)transitions,
                delta(a.work.gates, b.work.gates),
                delta(a.work.crcCalls, b.work.crcCalls),
                delta(a.work.advanceWalks, b.work.advanceWalks),
                delta(a.work.queryWalks, b.work.queryWalks),
                delta(a.work.phases, b.work.phases),
                delta(a.work.solves, b.work.solves),
                delta(a.work.seeks, b.work.seeks),
                delta(a.work.callbackEvents, b.work.callbackEvents),
                delta(a.work.inPlace, b.work.inPlace),
                delta(a.work.exps, b.work.exps),
                delta(a.news, b.news),
                (unsigned long long)(peakBytes - a.live),
                (unsigned long long)out);
}

Counts
countsOf(const apps::RunMetrics &m)
{
    return {m.simEvents, m.kernel.transitions, outputDigest({&m.device})};
}

} // namespace

int
main()
{
    setQuiet(true);
    constexpr std::uint64_t kSeed = 20180324;

    // The cell order of bench_fig08_accuracy. Each schedule is drawn
    // before its run is measured, as e2ebench draws them in set-up.
    const char *const rows[4] = {"ta_", "grcf_", "grcc_", "csr_"};
    const char *const tags[4] = {"pwr", "fixed", "capyr", "capyp"};
    for (int a = 0; a < 4; ++a) {
        const apps::PaperApp &app = apps::kPaperApps[a];
        const env::EventSchedule sched =
            apps::drawSchedule(app.schedule, kSeed);
        for (int p = 0; p < 4; ++p)
            measure(rows[a] + std::string(tags[p]), [&] {
                return countsOf(apps::runApp(app, apps::kPaperPolicies[p],
                                             sched, kSeed,
                                             app.schedule.horizon));
            });
    }

    measure("capysat", [&] {
        auto r = apps::runCapySat(5.0, kSeed);
        return Counts{r.simEvents, r.samples + r.packets,
                      outputDigest({&r.samplingMcu, &r.commMcu})};
    });

    // Inside the fifth checkpoint's commit window: the Collapse tears
    // the commit, and the reboot recovers the previous checkpoint.
    constexpr double kCrashAt = 56.645;
    apps::FaultSpec crash;
    crash.plan = sim::FaultPlan::atTimes({kCrashAt});
    measure("ckpt_crash", [&] {
        auto m = apps::runCheckpointCrashWorkload(&crash, 240.0, 240.0);
        return Counts{m.simEvents, m.kernel.checkpoints,
                      outputDigest({&m.device})};
    });
    return 0;
}
