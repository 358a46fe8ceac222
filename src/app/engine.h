/**
 * @file
 * Unified handle over the inference frameworks (TFLite delegates,
 * NNAPI, SNPE) so pipelines and experiments can switch with one enum —
 * the comparison axis of the paper's framework study.
 */

#ifndef AITAX_APP_ENGINE_H
#define AITAX_APP_ENGINE_H

#include <cstddef>
#include <memory>
#include <string_view>

#include "models/model_info.h"
#include "models/zoo.h"
#include "runtime/snpe.h"
#include "runtime/tflite.h"

namespace aitax::app {

/** Framework/backends under study. */
enum class FrameworkKind
{
    TfliteCpu,     ///< TFLite, optimized CPU kernels
    TfliteGpu,     ///< TFLite GPU delegate
    TfliteHexagon, ///< TFLite Hexagon delegate
    TfliteNnapi,   ///< NNAPI automatic device assignment
    SnpeDsp,       ///< vendor SNPE targeting the DSP
};

std::string_view frameworkName(FrameworkKind kind);

/**
 * A constructed framework instance for one model + format.
 */
class InferenceEngine
{
  public:
    InferenceEngine(const models::ModelInfo &info, tensor::DType dtype,
                    FrameworkKind kind, int threads = 4);

    FrameworkKind kind() const { return kind_; }
    const runtime::ExecutionPlan &plan() const;

    /** One-time framework + model initialization cost. */
    sim::DurationNs initNs() const;

    /** Append one inference invocation to @p task. */
    void appendInvoke(soc::SocSystem &sys, soc::Task &task,
                      const runtime::ExecOptions &opts,
                      runtime::InvokeContext &ctx) const;

    /** Steps that appendInvoke() appends (runtime::planStepCount). */
    std::size_t invokeStepCount() const;

  private:
    FrameworkKind kind_;
    std::unique_ptr<runtime::tflite::Interpreter> tflite_;
    std::unique_ptr<runtime::snpe::Network> snpe_;
};

/**
 * Process-wide immutable engine cache, the engine-level counterpart of
 * models::cachedGraph().
 *
 * Each (model, dtype, framework, threads) engine is built at most once
 * and never evicted; repeated calls, from any thread, return the same
 * instance. Construction takes no SocSystem, draws no RNG and
 * schedules nothing, so a cached engine behaves exactly like a fresh
 * one. @p model must be a models::allModels() row (keyed by id).
 */
const InferenceEngine &cachedEngine(const models::ModelInfo &model,
                                    tensor::DType dtype,
                                    FrameworkKind framework, int threads);

} // namespace aitax::app

#endif // AITAX_APP_ENGINE_H
