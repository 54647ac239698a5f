/**
 * @file
 * Task-based intermittent programming model in the style of Chain
 * [Colin & Lucia, OOPSLA'16], which the paper's applications are
 * written in (§6.1).
 *
 * An application is a graph of function-like tasks. A task executes
 * atomically: its externally visible effects (its body) apply only
 * when the task runs to completion, and control transfers to the next
 * task through a non-volatile task word (the successor's index)
 * committed at the transition. A power failure mid-task discards the
 * attempt; on reboot the same task restarts from the top.
 */

#ifndef CAPY_RT_TASK_HH
#define CAPY_RT_TASK_HH

#include <cstddef>
#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "sim/logging.hh"

namespace capy::rt
{

class Kernel;
struct Task;

/**
 * Task body: runs at the instant the task's atomic workload
 * completes, applies the task's effects (sampling, computation,
 * transmission bookkeeping), and names the successor task
 * (the `nexttask` statement). Returning nullptr halts the
 * application.
 */
using TaskBody = std::function<const Task *(Kernel &)>;

/**
 * One application task. Execution cost is explicit: @ref duration
 * seconds of atomic operation at the MCU's active power plus
 * @ref extraPower for the peripherals and radios the task keeps on.
 * Set a task's duration and powers before its kernel starts: the
 * kernel reads them once, in Kernel::start(), and keeps what each
 * attempt draws and each completion books.
 */
struct Task
{
    std::string name;
    /** Atomic execution time, s. */
    double duration = 0.0;
    /** Peripheral/radio power on top of MCU active power, W. */
    double extraPower = 0.0;
    /**
     * If positive, the total rail power of the task, replacing
     * mcu.activePower + extraPower. Used for workloads where the host
     * MCU sleeps while a subsystem works (e.g. a radio session).
     */
    double absolutePower = 0.0;
    /** Effects + successor selection, applied at completion. */
    TaskBody body;
    /**
     * Optional low-power pause after the task commits, s (sleep
     * pacing between samples; the device stays on at sleep power).
     */
    double sleepAfter = 0.0;
    /** Position in the owning App (App::taskAt), set by
     *  App::addTask; per-task tables and the kernel's NV task word
     *  index by it. */
    std::size_t index = 0;
};

/**
 * An application: an owning container of tasks with stable addresses
 * plus a designated entry task.
 */
class App
{
  public:
    /** Create a task; the returned pointer is stable for the App's
     *  lifetime (each task is its own allocation). The first task
     *  added becomes the entry by default. */
    Task *addTask(std::string name, double duration, double extra_power,
                  TaskBody body, double sleep_after = 0.0);

    /** Override the entry task. */
    void setEntry(const Task *task);

    const Task *entry() const;

    std::size_t taskCount() const { return tasks.size(); }

    /** The task at @p index (Task::index); panics when out of range. */
    const Task *
    taskAt(std::size_t index) const
    {
        // The panic is out of line so that this inlines: the kernel
        // checks every transition's task through here.
        if (index >= tasks.size())
            indexOutOfRange(index);
        return tasks[index].get();
    }

    /** Look up a task by name; nullptr when absent. */
    const Task *find(const std::string &name) const;

  private:
    [[noreturn]] void indexOutOfRange(std::size_t index) const;

    std::vector<std::unique_ptr<Task>> tasks;
    const Task *entryTask = nullptr;
};

} // namespace capy::rt

#endif // CAPY_RT_TASK_HH
