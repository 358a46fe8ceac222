/**
 * @file
 * Software task model: a schedulable unit of work on the CPU cluster.
 *
 * A Task is a queue of steps — compute slices, sleeps, markers and
 * blocking calls (used for accelerator offload). The OS scheduler
 * executes compute steps on cores, preempting at time-slice
 * boundaries; blocking steps take the task off the run queue until an
 * external completion resumes it.
 *
 * A task costs no heap on the per-frame path: it lives in the run's
 * arena with its step vector, which its builder reserves once from the
 * program's known length, and its name is a view of a string owned by
 * whoever builds its program (an Application, a background loop, a
 * runtime::InvokeContext) or a literal, so no name is copied per task.
 */

#ifndef AITAX_SOC_TASK_H
#define AITAX_SOC_TASK_H

#include <cassert>
#include <concepts>
#include <cstdint>
#include <memory>
#include <string>
#include <string_view>
#include <variant>
#include <vector>

#include "sim/arena.h"
#include "sim/inline_function.h"
#include "sim/time.h"
#include "sim/work.h"
#include "soc/soc_config.h"
#include "trace/tracer.h"

namespace aitax::soc {

class Task;

/** CPU work slice. */
struct ComputeStep
{
    sim::Work work;
    WorkClass cls = WorkClass::Scalar;
    /** Fraction of the step still to execute (preemption state). */
    double remaining = 1.0;
};

/** Off-CPU wait for a fixed duration. */
struct SleepStep
{
    sim::DurationNs duration = 0;
};

/** Timestamped callback for markers and task completion. */
using TimeFn = sim::InlineFunction<void(sim::TimeNs)>;

/** Instantaneous timestamp callback (stage boundaries). */
struct MarkerStep
{
    TimeFn fn;
};

/**
 * Copyable resume token handed to BlockStep starters.
 *
 * A blocked task is off the run queue and out of the core slot, so the
 * resume token is the only owner keeping it alive — it therefore holds
 * a shared_ptr to the task. It is deliberately copyable (unlike
 * InlineFunction) because offload paths stash it in AccelJob::onDone
 * and FastRPC completion callbacks, and allocation-free: a plain
 * function pointer plus two words, no type erasure.
 */
class BlockResume
{
  public:
    using Fn = void (*)(void *sched, std::shared_ptr<Task> task);

    BlockResume() = default;
    BlockResume(Fn fn, void *sched, std::shared_ptr<Task> task)
        : fn_(fn), sched_(sched), task_(std::move(task))
    {
    }

    explicit operator bool() const { return fn_ != nullptr; }
    void operator()() const { fn_(sched_, task_); }

  private:
    Fn fn_ = nullptr;
    void *sched_ = nullptr;
    std::shared_ptr<Task> task_;
};

/** Starter callback for a blocking external call. */
using BlockFn = sim::InlineFunction<void(Task &, BlockResume)>;

/**
 * Blocking external call. The scheduler invokes @p start with a resume
 * token; the task stays blocked until that token is invoked.
 */
struct BlockStep
{
    BlockFn start;
};

using TaskStep =
    std::variant<ComputeStep, SleepStep, MarkerStep, BlockStep>;

/** Scheduler-visible task states. */
enum class TaskState
{
    Created,
    Ready,
    Running,
    Blocked,
    Done,
};

/**
 * A schedulable task.
 *
 * Steps may be pushed while the task runs (self-extending programs),
 * which is how the pipeline layer chains stages that depend on data
 * produced by earlier steps.
 */
class Task
{
  public:
    /**
     * @param name not copied: it must outlive the task's trace records
     *        (a literal, or a string its builder keeps). A temporary
     *        std::string is refused at compile time.
     */
    explicit Task(std::string_view name, bool background = false,
                  sim::Arena *arena = nullptr);
    template <typename S>
        requires std::same_as<S, std::string>
    Task(S &&, bool = false, sim::Arena * = nullptr) = delete;

    std::string_view name() const { return name_; }

    /**
     * Interned label for this task's name, resolved lazily on first
     * use and cached so steady-state trace records skip the interner.
     * Pipelines that reuse task names pre-seed it via setTraceLabel().
     */
    trace::LabelId
    traceLabel(trace::Tracer &tracer) const
    {
        if (!traceLabel_.valid())
            traceLabel_ = tracer.internLabel(name_);
        return traceLabel_;
    }
    void setTraceLabel(trace::LabelId label) { traceLabel_ = label; }

    /** Background tasks never get priority pick of big cores. */
    bool isBackground() const { return background_; }

    /** Make room for @p steps steps, so building them never regrows. */
    void reserve(std::size_t steps) { this->steps.reserve(steps); }
    /** Steps pushed so far, consumed ones included. */
    std::size_t stepCount() const { return steps.size(); }

    Task &compute(sim::Work work, WorkClass cls);
    Task &sleep(sim::DurationNs duration);
    Task &marker(TimeFn fn);
    Task &block(BlockFn start);

    /** Called (with completion time) when the last step finishes. */
    void setOnComplete(TimeFn fn);

    // --- Scheduler interface -----------------------------------------

    TaskState state() const { return state_; }
    void setState(TaskState s) { state_ = s; }

    int lastCore() const { return lastCore_; }
    void setLastCore(int core) { lastCore_ = core; }

    bool hasSteps() const { return front_ < steps.size(); }

    TaskStep &
    frontStep()
    {
        assert(hasSteps());
        return steps[front_];
    }

    void
    popStep()
    {
        assert(hasSteps());
        // Grow-only storage: advance the cursor, but destroy the
        // consumed step's captures now (as the old deque's pop_front
        // did) so resume tokens and shared_ptrs don't outlive their
        // step.
        steps[front_].emplace<SleepStep>();
        ++front_;
    }

    void finish(sim::TimeNs now);

  private:
    std::string_view name_;
    mutable trace::LabelId traceLabel_;
    bool background_ = false;
    TaskState state_ = TaskState::Created;
    int lastCore_ = -1;
    /**
     * Step program: a grow-only vector with a consume cursor instead of
     * a deque, so step storage is one contiguous allocation that can
     * come from the per-run arena (popStep() just advances front_).
     */
    std::vector<TaskStep, sim::ArenaAllocator<TaskStep>> steps;
    std::size_t front_ = 0;
    TimeFn onComplete;
};

/**
 * Create a task on @p arena when one is supplied (allocate_shared, so
 * control block and Task share one arena allocation freed by arena
 * reset), falling back to the heap otherwise. All task shared_ptrs die
 * with the owning SocSystem, which is destroyed before its arena is
 * reset. @p name is viewed, not copied (see Task::Task).
 */
std::shared_ptr<Task> makeTask(sim::Arena *arena, std::string_view name,
                               bool background = false);
template <typename S>
    requires std::same_as<S, std::string>
std::shared_ptr<Task> makeTask(sim::Arena *, S &&, bool = false) = delete;

} // namespace aitax::soc

#endif // AITAX_SOC_TASK_H
