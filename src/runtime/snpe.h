/**
 * @file
 * SNPE-like vendor runtime.
 *
 * Qualcomm's Snapdragon Neural Processing Engine: highly tuned DSP
 * kernels with full operator coverage for conv nets. The paper finds
 * that switching from NNAPI to SNPE makes the DSP outperform the CPU
 * "as one would expect" (Section IV-B).
 */

#ifndef AITAX_RUNTIME_SNPE_H
#define AITAX_RUNTIME_SNPE_H

#include <memory>

#include "graph/graph.h"
#include "runtime/execute.h"
#include "runtime/plan.h"

namespace aitax::runtime::snpe {

/** SNPE runtime targets. */
enum class RuntimeTarget
{
    Dsp,
    Gpu,
    Cpu,
};

/**
 * A loaded SNPE network (the DLC container analogue).
 */
class Network
{
  public:
    /** Owning constructor: wraps @p g for this network alone. */
    Network(graph::Graph g, tensor::DType dtype,
            RuntimeTarget target = RuntimeTarget::Dsp);

    /** Shared-graph constructor (see models::cachedGraph). */
    Network(std::shared_ptr<const graph::Graph> g, tensor::DType dtype,
            RuntimeTarget target = RuntimeTarget::Dsp);

    const ExecutionPlan &plan() const { return plan_; }
    RuntimeTarget target() const { return target_; }

    /** DLC load + runtime init (includes DSP graph preparation). */
    sim::DurationNs initNs() const { return initNs_; }

    /** Append one inference invocation to @p task. */
    void appendInvoke(soc::SocSystem &sys, soc::Task &task,
                      ExecOptions exec_opts, InvokeContext &ctx) const;

  private:
    std::shared_ptr<const graph::Graph> graph_;
    tensor::DType dtype_;
    RuntimeTarget target_;
    ExecutionPlan plan_;
    sim::DurationNs initNs_ = 0;
};

} // namespace aitax::runtime::snpe

#endif // AITAX_RUNTIME_SNPE_H
