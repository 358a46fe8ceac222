#include "soc/task.h"

#include <cassert>

namespace aitax::soc {

Task::Task(std::string_view name, bool background, sim::Arena *arena)
    : name_(name), background_(background),
      steps(sim::ArenaAllocator<TaskStep>(arena))
{
}

Task &
Task::compute(sim::Work work, WorkClass cls)
{
    steps.push_back(ComputeStep{work, cls, 1.0});
    return *this;
}

Task &
Task::sleep(sim::DurationNs duration)
{
    steps.push_back(SleepStep{duration});
    return *this;
}

Task &
Task::marker(TimeFn fn)
{
    steps.push_back(MarkerStep{std::move(fn)});
    return *this;
}

Task &
Task::block(BlockFn start)
{
    steps.push_back(BlockStep{std::move(start)});
    return *this;
}

void
Task::setOnComplete(TimeFn fn)
{
    onComplete = std::move(fn);
}

void
Task::finish(sim::TimeNs now)
{
    assert(!hasSteps());
    state_ = TaskState::Done;
    if (onComplete)
        onComplete(now);
}

std::shared_ptr<Task>
makeTask(sim::Arena *arena, std::string_view name, bool background)
{
    if (arena != nullptr)
        return std::allocate_shared<Task>(sim::ArenaAllocator<Task>(arena),
                                          name, background, arena);
    return std::make_shared<Task>(name, background);
}

} // namespace aitax::soc
