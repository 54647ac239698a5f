#include "rt/kernel.hh"

#include <utility>

#include "sim/logging.hh"

namespace capy::rt
{

Kernel::Kernel(dev::Device &device, const App &app, dev::NvMemory *nv)
    : dev(device), application(app),
      nvCurrent(nv, static_cast<std::uint32_t>(app.entry()->index))
{
    // A transition is one NV word write, atomic only if the task
    // index fits the word the memory commits at once.
    capy_assert(nv == nullptr || sizeof(std::uint32_t) <= nv->wordBytes(),
                "NV task index (%zu bytes) wider than the %zu-byte "
                "atomic word",
                sizeof(std::uint32_t), nv->wordBytes());
    capy_assert(app.taskAt(app.entry()->index) == app.entry(),
                "entry task '%s' is not one of the kernel's app",
                app.entry()->name.c_str());
}

void
Kernel::setPreTaskGate(PreTaskGate gate)
{
    capy_assert(!started, "gate must be installed before start()");
    preTaskGate = std::move(gate);
}

void
Kernel::start()
{
    capy_assert(!started, "kernel already started");
    started = true;
    dev.setHooks(dev::Device::Hooks{
        .onBoot = [this] { onBoot(); },
        .onPowerFail = [this] { onPowerFail(); },
        .onWorkloadDone = [this] { onWorkloadDone(); },
    });
    dev.start();
}

void
Kernel::onBoot()
{
    if (isHalted)
        return;
    attempt(currentTask());
}

void
Kernel::onPowerFail()
{
    // The interrupted attempt left no visible effects (task bodies run
    // only at completion); the NV task index still designates the
    // interrupted task, which restarts on the next boot.
    if (inTask) {
        inTask = false;
        interrupted = running;
        ++kernelStats.taskRestarts;
        auto &use = energyOf(running);
        ++use.failedAttempts;
        const auto &aborted = dev.lastAbortedWorkload();
        use.wastedEnergy += aborted.railPower * aborted.elapsed;
    }
}

void
Kernel::onWorkloadDone()
{
    if (inTask)
        completeTask(running);
    else
        attempt(currentTask());  // the Task::sleepAfter pause ended
}

void
Kernel::attempt(const Task *task)
{
    if (preTaskGate && !preTaskGate(*task)) {
        capy_assert(!dev.isOn(),
                    "pre-task gate held back '%s' without parking the "
                    "device",
                    task->name.c_str());
        return;
    }
    runTask(task);
}

void
Kernel::runTask(const Task *task)
{
    inTask = true;
    running = task;
    interrupted = nullptr;
    dev.runWorkload(railPower(*task), task->duration);
}

void
Kernel::completeTask(const Task *task)
{
    inTask = false;
    ++kernelStats.taskCompletions;
    auto &use = energyOf(task);
    ++use.completions;
    use.railEnergy += railPower(*task) * task->duration;
    use.activeTime += task->duration;
    const Task *next = task->body(*this);
    commitTransition(next);
    if (isHalted)
        return;
    if (task->sleepAfter > 0.0) {
        // Low-power pause after the transition committed; the pause is
        // outside the atomic region, so a power failure during it
        // leaves the committed transition standing.
        dev.runWorkload(dev.mcu().sleepPower, task->sleepAfter);
        return;
    }
    attempt(next);
}

double
Kernel::railPower(const Task &task) const
{
    return task.absolutePower > 0.0
               ? task.absolutePower
               : dev.mcu().activePower + task.extraPower;
}

Kernel::TaskEnergyUse &
Kernel::energyOf(const Task *task)
{
    const std::size_t i = task->index;
    if (i < energyIndex.size() && energyIndex[i].task == task)
        return *energyIndex[i].use;
    // The task's first attempt. The address check catches a task of
    // another App whose index happens to be in range here.
    capy_assert(application.taskAt(i) == task,
                "task '%s' is not one of the kernel's app",
                task->name.c_str());
    if (i >= energyIndex.size())
        energyIndex.resize(application.taskCount());
    energyIndex[i] = {task, &taskEnergy[task->name]};
    return *energyIndex[i].use;
}

void
Kernel::commitTransition(const Task *next)
{
    if (next == nullptr) {
        isHalted = true;
        return;
    }
    // The word holds only the index: a task of another App with the
    // same index would silently become this App's task.
    capy_assert(next->index < application.taskCount() &&
                    application.taskAt(next->index) == next,
                "task '%s' is not one of the kernel's app",
                next->name.c_str());
    ++kernelStats.transitions;
    nvCurrent.set(static_cast<std::uint32_t>(next->index));
}

} // namespace capy::rt
