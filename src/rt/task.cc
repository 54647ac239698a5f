#include "rt/task.hh"

#include "sim/logging.hh"

namespace capy::rt
{

Task *
App::addTask(std::string name, double duration, double extra_power,
             TaskBody body, double sleep_after)
{
    capy_assert(duration >= 0.0, "task '%s': negative duration",
                name.c_str());
    capy_assert(extra_power >= 0.0, "task '%s': negative power",
                name.c_str());
    capy_assert(body != nullptr, "task '%s': missing body",
                name.c_str());
    auto task = std::make_unique<Task>(
        Task{std::move(name), duration, extra_power, 0.0,
             std::move(body), sleep_after, tasks.size()});
    Task *t = task.get();
    tasks.push_back(std::move(task));
    if (!entryTask)
        entryTask = t;
    return t;
}

void
App::setEntry(const Task *task)
{
    capy_assert(task != nullptr, "entry task is null");
    entryTask = task;
}

const Task *
App::entry() const
{
    capy_assert(entryTask != nullptr, "app has no tasks");
    return entryTask;
}

void
App::indexOutOfRange(std::size_t index) const
{
    capy_panic("task index %zu of %zu", index, tasks.size());
}

const Task *
App::find(const std::string &name) const
{
    for (const auto &t : tasks)
        if (t->name == name)
            return t.get();
    return nullptr;
}

} // namespace capy::rt
