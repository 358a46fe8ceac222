/**
 * @file
 * Plan execution: turning an ExecutionPlan into scheduler/accelerator
 * activity on a simulated SoC.
 *
 * Appending an invocation allocates nothing from the heap once its
 * caller's InvokeContext has built its names: every offload closure
 * captures scalars, a trace label and one pointer to the context, so
 * it fits sim::InlineFunction's inline buffer, and the CPU pool's
 * countdown comes from the run's arena.
 */

#ifndef AITAX_RUNTIME_EXECUTE_H
#define AITAX_RUNTIME_EXECUTE_H

#include <cstddef>
#include <cstdint>
#include <deque>
#include <string>
#include <string_view>
#include <vector>

#include "drivers/instrumentation.h"
#include "runtime/plan.h"
#include "soc/fastrpc.h"
#include "soc/system.h"
#include "soc/task.h"
#include "trace/tracer.h"

namespace aitax::runtime {

/**
 * The caller side of a stream of invocations — an Application's frames
 * or a background loop's inferences. The caller owns it, and it
 * outlives every invocation appended with it: offload closures capture
 * a pointer to it, and worker tasks view the names it holds. Names are
 * built on first use and kept; their labels are interned on first use
 * with tracing on, never at construction, so building a context before
 * a warm-up snapshot interns nothing.
 */
class InvokeContext
{
  public:
    /**
     * @param label names the invocation's worker tasks and jobs.
     * @param process_id calling process (FastRPC sessions are
     *        per-process).
     * @param rpc_log if set, FastRPC breakdowns are appended here (Fig
     *        7/8 data).
     * @param degraded_ns if set, simulated time spent executing on a
     *        fallback device after a permanent offload failure is
     *        accumulated here (the caller's degraded-mode tax).
     */
    explicit InvokeContext(
        std::string label, std::int32_t process_id = 1,
        std::vector<soc::FastRpcBreakdown> *rpc_log = nullptr,
        sim::DurationNs *degraded_ns = nullptr);

    /** Pinned: tasks view its names and closures point at it. */
    InvokeContext(const InvokeContext &) = delete;
    InvokeContext &operator=(const InvokeContext &) = delete;

    std::string_view label() const { return label_; }
    std::int32_t processId() const { return processId_; }
    std::vector<soc::FastRpcBreakdown> *rpcLog() const { return rpcLog_; }
    sim::DurationNs *degradedNs() const { return degradedNs_; }

    /** "<label>_w<t>": CPU pool worker @p t. */
    trace::LazyLabel &worker(int t);

    /** "<label>@<device>": a job on @p device (a driver's name). */
    trace::LazyLabel &job(std::string_view device);

    /** "<label>_fallback_cpu": the degraded CPU re-run's task name. */
    std::string_view fallbackCpuName();

  private:
    std::string label_;
    std::int32_t processId_;
    std::vector<soc::FastRpcBreakdown> *rpcLog_;
    sim::DurationNs *degradedNs_;
    /** A deque, so growing it never moves a name a task views. */
    std::deque<trace::LazyLabel> workers_;
    std::vector<trace::LazyLabel> jobs_;
    std::string fallbackCpu_;
};

/** Per-invocation execution options. */
struct ExecOptions
{
    /** Thread count for optimized CPU partitions. */
    int cpuThreads = 4;
    /** Parallel scaling efficiency of the CPU thread pool. */
    double parallelEfficiency = 0.85;
    /** Run worker threads at background priority. */
    bool background = false;
    /** Log-normal sigma applied to this invocation's compute work. */
    double noiseSigma = 0.0;
    /** Optional probe-effect model (Section III-D). */
    const drivers::Instrumentation *instrumentation = nullptr;
};

/**
 * Scalar CPU work sized to take roughly @p ns on a reference big core
 * (used to model driver/framework CPU overheads as real CPU busy time).
 */
sim::Work workForCpuNs(double ns);

/** Number of steps appendPlanExecution() appends for @p plan. */
std::size_t planStepCount(const ExecutionPlan &plan);

/**
 * Append the steps that execute @p plan to @p task.
 *
 * CPU partitions fork a thread pool (or run inline for the reference
 * path); accelerated partitions cross the GPU queue or the FastRPC
 * channel to the DSP. Partition boundaries pay a tensor-handoff cost.
 * Trace labels are resolved here, at append time.
 */
void appendPlanExecution(soc::SocSystem &sys, soc::Task &task,
                         const ExecutionPlan &plan,
                         const ExecOptions &opts, InvokeContext &ctx);

} // namespace aitax::runtime

#endif // AITAX_RUNTIME_EXECUTE_H
