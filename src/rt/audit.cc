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

// Device-level failure accounting: every boot failure and every
// injected failure is also a power failure, counted exactly once.
std::string
devFailureAccounting(const dev::Device &dev)
{
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
}

std::string
chainAccounting(const Kernel &k)
{
    const auto &st = k.stats();
    std::uint64_t expected = st.transitions + (k.halted() ? 1u : 0u);
    if (st.taskCompletions != expected)
        return fmt("completions %llu != transitions %llu + halted %d",
                   (unsigned long long)st.taskCompletions,
                   (unsigned long long)st.transitions,
                   k.halted() ? 1 : 0);
    return "";
}

std::string
chainTaskValid(const Kernel &k)
{
    std::uint32_t i = k.taskCell().peek();
    if (i >= k.app().taskCount())
        return fmt("recovered NV task index %u is not a task of the "
                   "app (%zu tasks)",
                   i, k.app().taskCount());
    return "";
}

// The transition commits by writing the one NV task word exactly
// once: any other write (say, of an attempt that then aborted) is a
// commit the accounting never saw.
std::string
chainCommitCount(const Kernel &k)
{
    std::uint64_t writes = k.taskCell().writeCount();
    std::uint64_t transitions = k.stats().transitions;
    if (writes != transitions)
        return fmt("NV task word written %llu times for %llu "
                   "transitions",
                   (unsigned long long)writes,
                   (unsigned long long)transitions);
    return "";
}

// An aborted attempt commits nothing: until the task runs again, the
// NV task word still designates it.
std::string
chainAbortKeepsTask(const Kernel &k)
{
    const Task *a = k.abortedTask();
    if (a == nullptr)
        return "";
    std::uint32_t i = k.taskCell().peek();
    if (i != a->index)
        return fmt("NV task index %u after an aborted attempt of '%s' "
                   "(index %zu)",
                   i, a->name.c_str(), a->index);
    return "";
}

std::string
ckptProgressRange(const CheckpointKernel &k)
{
    double p = k.progressCell().peek();
    if (p < -1e-9 || p > k.workTarget() + 1e-9)
        return fmt("recovered progress %g outside [0, %g]", p,
                   k.workTarget());
    return "";
}

std::string
ckptOverheadIdentity(const CheckpointKernel &k)
{
    const auto &st = k.stats();
    const auto &spec = k.kernelSpec();
    double expected = double(st.checkpoints) * spec.checkpointTime +
                      double(st.restores) * spec.restoreTime;
    if (std::abs(st.overheadTime - expected) > 1e-9)
        return fmt("overheadTime %g != %llu ckpts * %g + "
                   "%llu restores * %g",
                   st.overheadTime, (unsigned long long)st.checkpoints,
                   spec.checkpointTime,
                   (unsigned long long)st.restores, spec.restoreTime);
    return "";
}

std::string
ckptJournal(const CheckpointKernel &k)
{
    auto st = k.progressCell().auditState();
    if (st.commits > 0 && st.active < 0)
        return fmt("no valid journal slot after %llu commits",
                   (unsigned long long)st.commits);
    return "";
}

// Re-derive recovery through the protocol and compare with what the
// software's read path returns: catches a recovery implementation
// that believes torn slots (skipped CRC checks).
std::string
ckptRecoveryIntegrity(const CheckpointKernel &k)
{
    double seen = k.progressCell().peek();
    double strict = k.progressCell().auditRecover();
    if (std::memcmp(&seen, &strict, sizeof seen) != 0)
        return fmt("read path recovered %.17g, protocol recovers %.17g",
                   seen, strict);
    return "";
}

} // namespace

CrashAuditor::CrashAuditor(dev::Device &device) : dev(device)
{
    dev.setObserver(dev::Device::Observer{
        .onRailUp = [this] { onRailUp(); },
        .onRailDown = [this] { onRailDown(); },
    });
}

void
CrashAuditor::watchKernel(const Kernel &k)
{
    capy_assert(kernel == nullptr, "auditor already watches a kernel");
    capy_assert(&k.device() == &dev,
                "kernel runs on another device than the audited one");
    kernel = &k;
}

void
CrashAuditor::watchCheckpoint(const CheckpointKernel &k)
{
    capy_assert(ckpt == nullptr,
                "auditor already watches a checkpoint kernel");
    capy_assert(&k.device() == &dev,
                "kernel runs on another device than the audited one");
    ckpt = &k;
}

void
CrashAuditor::onRailDown()
{
    // Runs after the software's onPowerFail hook: this is the exact
    // non-volatile state that must survive the outage.
    checkNow();
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
    checkNow();
    if (downRecorded) {
        ++numOutages;
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
CrashAuditor::checkNow()
{
    // Rules first, then high-water marks: violations and report()
    // follow this order.
    check("dev-failure-accounting", devFailureAccounting(dev));
    if (kernel) {
        check("chain-accounting", chainAccounting(*kernel));
        check("chain-task-valid", chainTaskValid(*kernel));
        check("chain-commit-count", chainCommitCount(*kernel));
        check("chain-abort-keeps-task", chainAbortKeepsTask(*kernel));
    }
    if (ckpt) {
        check("ckpt-progress-range", ckptProgressRange(*ckpt));
        check("ckpt-overhead-identity", ckptOverheadIdentity(*ckpt));
        check("ckpt-journal", ckptJournal(*ckpt));
        check("ckpt-recovery-integrity", ckptRecoveryIntegrity(*ckpt));
    }
    if (kernel)
        sample("chain-transitions", transitionsMark,
               static_cast<double>(kernel->stats().transitions));
    if (ckpt)
        sample("ckpt-progress", progressMark,
               ckpt->progressCell().peek());
}

void
CrashAuditor::check(const char *rule, std::string detail)
{
    ++numChecks;
    if (!detail.empty())
        violate(rule, std::move(detail));
}

void
CrashAuditor::sample(const char *rule, HighWater &hw, double value)
{
    ++numChecks;
    const double tol = 1e-12;
    if (hw.seeded && value < hw.mark - tol)
        violate(rule, fmt("value regressed to %.12g from high-water "
                          "%.12g",
                          value, hw.mark));
    if (!hw.seeded || value > hw.mark) {
        hw.mark = value;
        hw.seeded = true;
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
