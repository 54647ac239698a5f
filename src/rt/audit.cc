#include "rt/audit.hh"

#include <cmath>
#include <cstdarg>
#include <cstdio>
#include <cstring>

#include "power/solver.hh"
#include "rt/checkpoint.hh"
#include "rt/kernel.hh"
#include "sim/logging.hh"

namespace capy::rt
{

namespace
{

std::string
fmt(const char *f, ...)
{
    char buf[256];
    va_list ap;
    va_start(ap, f);
    std::vsnprintf(buf, sizeof(buf), f, ap);
    va_end(ap);
    return buf;
}

} // namespace

CrashAuditor::CrashAuditor(dev::Device &device) : dev(device)
{
    dev.setObserver(dev::Device::Observer{
        .onRailUp = [this] { onRailUp(); },
        .onRailDown = [this] { onRailDown(); },
    });

    // Device-level failure accounting is audited unconditionally:
    // every boot failure and every injected failure is also a power
    // failure, counted exactly once.
    addInvariant("dev-failure-accounting", [this]() -> std::string {
        const auto &st = dev.stats();
        if (st.bootFailures > st.powerFailures)
            return fmt("bootFailures %llu > powerFailures %llu",
                       (unsigned long long)st.bootFailures,
                       (unsigned long long)st.powerFailures);
        if (st.injectedFailures > st.powerFailures)
            return fmt("injectedFailures %llu > powerFailures %llu",
                       (unsigned long long)st.injectedFailures,
                       (unsigned long long)st.powerFailures);
        return "";
    });
}

void
CrashAuditor::addInvariant(std::string rule, Check check)
{
    capy_assert(check != nullptr, "null check '%s'", rule.c_str());
    invariants.emplace_back(std::move(rule), std::move(check));
}

void
CrashAuditor::addMonotonic(std::string rule,
                           std::function<double()> probe, double tol)
{
    capy_assert(probe != nullptr, "null probe '%s'", rule.c_str());
    monotonics.push_back(MonotonicProbe{std::move(rule),
                                        std::move(probe), tol, 0.0});
}

void
CrashAuditor::watchKernel(const Kernel &kernel)
{
    const Kernel *k = &kernel;

    addInvariant("chain-accounting", [k]() -> std::string {
        const auto &st = k->stats();
        std::uint64_t expected =
            st.transitions + (k->halted() ? 1u : 0u);
        if (st.taskCompletions != expected)
            return fmt("completions %llu != transitions %llu + "
                       "halted %d",
                       (unsigned long long)st.taskCompletions,
                       (unsigned long long)st.transitions,
                       k->halted() ? 1 : 0);
        return "";
    });

    addInvariant("chain-task-valid", [k]() -> std::string {
        std::uint32_t i = k->taskCell().peek();
        if (i >= k->app().taskCount())
            return fmt("recovered NV task index %u is not a task of "
                       "the app (%zu tasks)",
                       i, k->app().taskCount());
        return "";
    });

    // The transition commits by writing the one NV task word exactly
    // once: any other write (say, of an attempt that then aborted) is
    // a commit the accounting never saw.
    addInvariant("chain-commit-count", [k]() -> std::string {
        std::uint64_t writes = k->taskCell().writeCount();
        std::uint64_t transitions = k->stats().transitions;
        if (writes != transitions)
            return fmt("NV task word written %llu times for %llu "
                       "transitions",
                       (unsigned long long)writes,
                       (unsigned long long)transitions);
        return "";
    });

    // An aborted attempt commits nothing: until the task runs again,
    // the NV task word still designates it.
    addInvariant("chain-abort-keeps-task", [k]() -> std::string {
        const Task *a = k->abortedTask();
        if (a == nullptr)
            return "";
        std::uint32_t i = k->taskCell().peek();
        if (i != a->index)
            return fmt("NV task index %u after an aborted attempt of "
                       "'%s' (index %zu)",
                       i, a->name.c_str(), a->index);
        return "";
    });

    addMonotonic("chain-transitions", [k] {
        return static_cast<double>(k->stats().transitions);
    });
}

void
CrashAuditor::watchCheckpoint(const CheckpointKernel &kernel)
{
    const CheckpointKernel *k = &kernel;

    addMonotonic("ckpt-progress",
                 [k] { return k->progressCell().peek(); });

    addInvariant("ckpt-progress-range", [k]() -> std::string {
        double p = k->progressCell().peek();
        if (p < -1e-9 || p > k->workTarget() + 1e-9)
            return fmt("recovered progress %g outside [0, %g]", p,
                       k->workTarget());
        return "";
    });

    addInvariant("ckpt-overhead-identity", [k]() -> std::string {
        const auto &st = k->stats();
        const auto &spec = k->kernelSpec();
        double expected =
            double(st.checkpoints) * spec.checkpointTime +
            double(st.restores) * spec.restoreTime;
        if (std::abs(st.overheadTime - expected) > 1e-9)
            return fmt("overheadTime %g != %llu ckpts * %g + "
                       "%llu restores * %g",
                       st.overheadTime,
                       (unsigned long long)st.checkpoints,
                       spec.checkpointTime,
                       (unsigned long long)st.restores,
                       spec.restoreTime);
        return "";
    });

    addInvariant("ckpt-journal", [k]() -> std::string {
        auto st = k->progressCell().auditState();
        if (st.commits > 0 && st.active < 0)
            return fmt("no valid journal slot after %llu commits",
                       (unsigned long long)st.commits);
        return "";
    });

    // Re-derive recovery through the protocol and compare with what
    // the software's read path returns: catches a recovery
    // implementation that believes torn slots (skipped CRC checks).
    addInvariant("ckpt-recovery-integrity", [k]() -> std::string {
        double seen = k->progressCell().peek();
        double strict = k->progressCell().auditRecover();
        if (std::memcmp(&seen, &strict, sizeof seen) != 0)
            return fmt("read path recovered %.17g, protocol "
                       "recovers %.17g",
                       seen, strict);
        return "";
    });
}

void
CrashAuditor::watchLatches()
{
    latchesWatched = true;
}

void
CrashAuditor::checkNow()
{
    runChecks();
    sampleMonotonics();
}

void
CrashAuditor::onRailDown()
{
    // Runs after the software's onPowerFail hook: this is the exact
    // non-volatile state that must survive the outage.
    runChecks();
    sampleMonotonics();
    if (latchesWatched)
        recordLatches();
    downRecorded = true;
    lastDownTime = dev.simulator().now();
    if (lastUpTime >= 0.0) {
        spans.emplace_back(lastUpTime, lastDownTime);
        lastUpTime = -1.0;
    }
}

void
CrashAuditor::onRailUp()
{
    // Runs before the software's onBoot hook: recovered state is
    // audited before recovery code can repair it.
    runChecks();
    sampleMonotonics();
    if (downRecorded) {
        ++numOutages;
        if (latchesWatched)
            checkLatches();
        downRecorded = false;
    }
    lastUpTime = dev.simulator().now();
}

std::vector<std::pair<sim::Time, sim::Time>>
CrashAuditor::activeSpans() const
{
    auto out = spans;
    if (lastUpTime >= 0.0 && dev.simulator().now() > lastUpTime)
        out.emplace_back(lastUpTime, dev.simulator().now());
    return out;
}

void
CrashAuditor::runChecks()
{
    for (const auto &[rule, check] : invariants) {
        ++numChecks;
        std::string detail = check();
        if (!detail.empty())
            violate(rule, std::move(detail));
    }
}

void
CrashAuditor::sampleMonotonics()
{
    for (MonotonicProbe &m : monotonics) {
        ++numChecks;
        double v = m.probe();
        if (m.seeded && v < m.highWater - m.tol) {
            violate(m.rule, fmt("value regressed to %.12g from "
                                "high-water %.12g",
                                v, m.highWater));
        }
        if (!m.seeded || v > m.highWater) {
            m.highWater = v;
            m.seeded = true;
        }
    }
}

void
CrashAuditor::recordLatches()
{
    latchesAtDown.clear();
    const auto &ps = dev.powerSystem();
    sim::Time now = dev.simulator().now();
    for (int i = 0; i < ps.numBanks(); ++i) {
        const power::BankSwitch *sw = ps.bankSwitch(i);
        if (!sw)
            continue;
        latchesAtDown.push_back(LatchRecord{
            i, sw->closed(), sw->atDefault(), sw->expiryTime(now)});
    }
}

void
CrashAuditor::checkLatches()
{
    // The unpowered window ran from rail-down until the boot sequence
    // re-enabled the rail, one boot time before this rail-up.
    sim::Time boot_start =
        dev.simulator().now() - dev.mcu().bootTime;
    const auto &ps = dev.powerSystem();
    for (const LatchRecord &rec : latchesAtDown) {
        ++numChecks;
        const power::BankSwitch *sw = ps.bankSwitch(rec.bankIdx);
        if (!sw)
            continue;
        double tol = 1e-6 + 1e-9 * std::abs(rec.expiry);
        if (!std::isfinite(rec.expiry) ||
            boot_start < rec.expiry - tol) {
            // Latch outlives the outage: the commanded state must be
            // retained exactly.
            if (sw->closed() != rec.closed)
                violate("latch-retention",
                        fmt("bank %d switch changed state while its "
                            "latch held (down %.6g, up %.6g, expiry "
                            "%.6g)",
                            rec.bankIdx, lastDownTime,
                            dev.simulator().now(), rec.expiry));
        } else if (boot_start > rec.expiry + tol && !rec.atDefault) {
            // Latch expired while unpowered: the switch must have
            // reverted to its default.
            if (!sw->atDefault())
                violate("latch-reversion",
                        fmt("bank %d switch held past latch expiry "
                            "%.6g (repowered %.6g)",
                            rec.bankIdx, rec.expiry, boot_start));
        }
    }
}

void
CrashAuditor::violate(const std::string &rule, std::string detail)
{
    found.push_back(
        Violation{rule, std::move(detail), dev.simulator().now()});
}

std::string
CrashAuditor::report() const
{
    std::string out;
    for (const Violation &v : found) {
        out += fmt("[t=%.9g] %s: ", v.when, v.rule.c_str());
        out += v.detail;
        out += '\n';
    }
    return out;
}

} // namespace capy::rt
