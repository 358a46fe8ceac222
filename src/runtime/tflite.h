/**
 * @file
 * TFLite-like interpreter front-end.
 *
 * Wraps a model graph with a delegate choice (CPU thread pool, GPU
 * delegate, Hexagon delegate, or NNAPI) and exposes the one-time
 * initialization cost and per-invocation execution, matching how the
 * paper's benchmarks drive models through TFLite.
 */

#ifndef AITAX_RUNTIME_TFLITE_H
#define AITAX_RUNTIME_TFLITE_H

#include <memory>
#include <string>

#include "graph/graph.h"
#include "runtime/execute.h"
#include "runtime/nnapi.h"
#include "runtime/plan.h"

namespace aitax::runtime::tflite {

/** Delegate selection. */
enum class DelegateKind
{
    None,    ///< optimized CPU kernels on the interpreter thread pool
    Gpu,     ///< open-source GPU delegate
    Hexagon, ///< open-source Hexagon delegate
    Nnapi,   ///< NNAPI delegate (automatic device assignment)
};

std::string_view delegateName(DelegateKind kind);

/** Interpreter construction options. */
struct InterpreterOptions
{
    DelegateKind delegate = DelegateKind::None;
    int threads = 4;
    nnapi::ExecutionPreference preference =
        nnapi::ExecutionPreference::FastSingleAnswer;
    /** Execute through an NNAPI burst object (amortized HAL
     *  scheduling overhead). Only meaningful with DelegateKind::Nnapi. */
    bool useNnapiBurst = false;
};

/**
 * A loaded model ready to invoke.
 */
class Interpreter
{
  public:
    /** Owning constructor: wraps @p g for this interpreter alone. */
    Interpreter(graph::Graph g, tensor::DType dtype,
                InterpreterOptions options);

    /**
     * Shared-graph constructor: the interpreter only reads the graph,
     * so concurrent scenarios can all point at one immutable instance
     * (see models::cachedGraph) instead of rebuilding it.
     */
    Interpreter(std::shared_ptr<const graph::Graph> g,
                tensor::DType dtype, InterpreterOptions options);

    const graph::Graph &graph() const { return *graph_; }
    tensor::DType dtype() const { return dtype_; }
    const InterpreterOptions &options() const { return opts; }
    const ExecutionPlan &plan() const { return plan_; }

    /**
     * One-time initialization: model load/verify plus delegate
     * preparation (shader compilation, DSP library load, NNAPI model
     * compilation). Part of the cold-start story (Section IV-C).
     */
    sim::DurationNs modelInitNs() const { return initNs; }

    /** Append one inference invocation to @p task. */
    void appendInvoke(soc::SocSystem &sys, soc::Task &task,
                      ExecOptions exec_opts, InvokeContext &ctx) const;

  private:
    std::shared_ptr<const graph::Graph> graph_;
    tensor::DType dtype_;
    InterpreterOptions opts;
    ExecutionPlan plan_;
    sim::DurationNs initNs = 0;
};

} // namespace aitax::runtime::tflite

#endif // AITAX_RUNTIME_TFLITE_H
