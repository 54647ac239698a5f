#include "rt/kernel.hh"

#include <utility>

#include "sim/logging.hh"
#include "sim/work.hh"

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
    // A task's duration and powers are fixed from here on (task.hh).
    taskTable.resize(application.taskCount());
    for (std::size_t i = 0; i < taskTable.size(); ++i) {
        const Task *task = application.taskAt(i);
        const double power = railPower(*task);
        taskTable[i] = {task, power, power * task->duration, nullptr};
    }
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
    if (preTaskGate) {
        ++sim::workCounts.gates;
        if (!preTaskGate(*task)) {
            capy_assert(!dev.isOn(),
                        "pre-task gate held back '%s' without parking "
                        "the device",
                        task->name.c_str());
            return;
        }
    }
    runTask(task);
}

void
Kernel::runTask(const Task *task)
{
    inTask = true;
    running = task;
    interrupted = nullptr;
    dev.runWorkload(taskTable[task->index].power, task->duration);
}

void
Kernel::completeTask(const Task *task)
{
    inTask = false;
    ++kernelStats.taskCompletions;
    auto &use = energyOf(task);
    ++use.completions;
    use.railEnergy += taskTable[task->index].energy;
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
    // The task of an attempt: the NV word's, which commitTransition
    // checked against the table.
    TaskSlot &slot = taskTable[task->index];
    if (slot.use == nullptr)
        slot.use = &taskEnergy[task->name];
    return *slot.use;
}

void
Kernel::commitTransition(const Task *next)
{
    if (next == nullptr) {
        isHalted = true;
        return;
    }
    // The word holds only the index: a task of another App with the
    // same index would silently become this App's task. A task added
    // after start() has no row and is caught here too.
    capy_assert(next->index < taskTable.size() &&
                    taskTable[next->index].task == next,
                "task '%s' is not one of the kernel's app",
                next->name.c_str());
    ++kernelStats.transitions;
    nvCurrent.set(static_cast<std::uint32_t>(next->index));
}

} // namespace capy::rt
