/**
 * @file
 * The intermittent-execution kernel: drives an App's task graph on a
 * Device, keeping the current task's index in one non-volatile word
 * so execution resumes at the interrupted task after every power
 * failure.
 *
 * The Capybara runtime (src/core) attaches through the pre-task gate:
 * before a task executes — on every attempt, including restarts — the
 * gate may reconfigure the power system and power the device down to
 * recharge; the task runs only when the gate's verdict says so.
 */

#ifndef CAPY_RT_KERNEL_HH
#define CAPY_RT_KERNEL_HH

#include <cstdint>
#include <functional>
#include <map>
#include <string>
#include <vector>

#include "dev/device.hh"
#include "dev/nvmem.hh"
#include "rt/task.hh"

namespace capy::rt
{

/**
 * Chain-style scheduler for one application on one device.
 */
class Kernel
{
  public:
    /**
     * Pre-task gate: called with the task about to execute. It either
     * returns true (possibly after reconfiguring the power system)
     * and the kernel runs the task right away, or parks the device
     * (Device::powerDown()) and returns false; after the subsequent
     * boot the gate runs again for the same task. Returning false
     * without parking is a contract violation the kernel asserts on.
     */
    using PreTaskGate = std::function<bool(const Task &)>;

    /** Execution counters. */
    struct Stats
    {
        std::uint64_t taskCompletions = 0;
        /** Task attempts cut short by a power failure. */
        std::uint64_t taskRestarts = 0;
        /** Committed task-to-task transitions. */
        std::uint64_t transitions = 0;
    };

    /**
     * Per-task energy/time attribution — the §3 provisioning
     * methodology ("measure a task's energy consumption") built into
     * the kernel. Wasted energy is charge spent on attempts that a
     * power failure discarded.
     */
    struct TaskEnergyUse
    {
        std::uint64_t completions = 0;
        std::uint64_t failedAttempts = 0;
        double railEnergy = 0.0;    ///< J spent on completed runs
        double wastedEnergy = 0.0;  ///< J spent on aborted attempts
        double activeTime = 0.0;    ///< s of completed execution
    };

    Kernel(dev::Device &device, const App &app,
           dev::NvMemory *nv = nullptr);
    /** Device hooks and the energy index point into this object. */
    Kernel(const Kernel &) = delete;
    Kernel &operator=(const Kernel &) = delete;

    /** Install the Capybara gate; must precede start(). */
    void setPreTaskGate(PreTaskGate gate);

    /** Wire device hooks and begin (device starts charging). */
    void start();

    /** The task the NV task index currently designates. */
    const Task *currentTask() const
    {
        return application.taskAt(nvCurrent.get());
    }

    /** The NV task index, Task::index of the current task (audit
     *  access). */
    const dev::NvCell<std::uint32_t> &taskCell() const
    {
        return nvCurrent;
    }

    /** The task whose attempt the last power failure cut short, until
     *  that task's next attempt starts; nullptr when none is pending
     *  (audit access). */
    const Task *abortedTask() const { return interrupted; }

    /** The application this kernel schedules. */
    const App &app() const { return application; }

    /** True once a body returned nullptr. */
    bool halted() const { return isHalted; }

    const Stats &stats() const { return kernelStats; }

    /** Energy attribution by task name. */
    const std::map<std::string, TaskEnergyUse> &energyByTask() const
    {
        return taskEnergy;
    }

    dev::Device &device() { return dev; }
    const dev::Device &device() const { return dev; }
    sim::Time now() const { return dev.simulator().now(); }

  private:
    void onBoot();
    void onPowerFail();
    void onWorkloadDone();
    /** Pass @p task (the one the NV word designates) through the
     *  gate and run it. */
    void attempt(const Task *task);
    void runTask(const Task *task);
    void completeTask(const Task *task);
    /** The rail power @p task's workload draws; start() tabulates it
     *  for every task. */
    double railPower(const Task &task) const;
    void commitTransition(const Task *next);
    TaskEnergyUse &energyOf(const Task *task);

    dev::Device &dev;
    const App &application;
    /** The Chain NV task word: the current task's Task::index. One
     *  word commits atomically (dev::NvMemory::wordBytes), so a
     *  transition needs no journal. */
    dev::NvCell<std::uint32_t> nvCurrent;
    PreTaskGate preTaskGate;
    Stats kernelStats;
    std::map<std::string, TaskEnergyUse> taskEnergy;
    /** One task's row of the kernel's per-task table. */
    struct TaskSlot
    {
        const Task *task = nullptr;
        /** W the task's workload draws (railPower()). */
        double power = 0.0;
        /** J a completion books: power * Task::duration. */
        double energy = 0.0;
        /** The task's taskEnergy node (map nodes are stable), filled
         *  on the task's first completion or failure, so the map
         *  holds only attempted tasks and the per-transition
         *  accounting skips the string-keyed lookup. Tasks sharing a
         *  name share a node. */
        TaskEnergyUse *use = nullptr;
    };
    /** By Task::index, one row per task of the app, filled by
     *  start(): runTask draws from it and completeTask books from
     *  it, so the two cannot drift apart. */
    std::vector<TaskSlot> taskTable;
    /** The task of the latest attempt; its workload is in flight
     *  while inTask holds. */
    const Task *running = nullptr;
    /** See abortedTask(). */
    const Task *interrupted = nullptr;
    bool started = false;
    bool isHalted = false;
    /** A task's workload is in flight; otherwise the kernel's only
     *  workload is a Task::sleepAfter pause. */
    bool inTask = false;
};

} // namespace capy::rt

#endif // CAPY_RT_KERNEL_HH
