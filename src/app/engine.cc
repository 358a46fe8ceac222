#include "app/engine.h"

#include <cassert>
#include <map>
#include <mutex>
#include <string>
#include <tuple>

namespace aitax::app {

using runtime::tflite::DelegateKind;
using runtime::tflite::Interpreter;
using runtime::tflite::InterpreterOptions;

std::string_view
frameworkName(FrameworkKind kind)
{
    switch (kind) {
      case FrameworkKind::TfliteCpu: return "tflite-cpu";
      case FrameworkKind::TfliteGpu: return "tflite-gpu";
      case FrameworkKind::TfliteHexagon: return "tflite-hexagon";
      case FrameworkKind::TfliteNnapi: return "nnapi";
      case FrameworkKind::SnpeDsp: return "snpe-dsp";
    }
    return "unknown";
}

InferenceEngine::InferenceEngine(const models::ModelInfo &info,
                                 tensor::DType dtype, FrameworkKind kind,
                                 int threads)
    : kind_(kind)
{
    // Shared immutable graph: every engine for this (model, dtype)
    // points at one cached instance instead of rebuilding it.
    auto g = models::cachedGraph(info, dtype);
    if (kind == FrameworkKind::SnpeDsp) {
        snpe_ = std::make_unique<runtime::snpe::Network>(
            std::move(g), dtype, runtime::snpe::RuntimeTarget::Dsp);
        return;
    }
    InterpreterOptions opts;
    opts.threads = threads;
    switch (kind) {
      case FrameworkKind::TfliteCpu:
        opts.delegate = DelegateKind::None;
        break;
      case FrameworkKind::TfliteGpu:
        opts.delegate = DelegateKind::Gpu;
        break;
      case FrameworkKind::TfliteHexagon:
        opts.delegate = DelegateKind::Hexagon;
        break;
      case FrameworkKind::TfliteNnapi:
        opts.delegate = DelegateKind::Nnapi;
        break;
      case FrameworkKind::SnpeDsp:
        break; // handled above
    }
    tflite_ = std::make_unique<Interpreter>(std::move(g), dtype, opts);
}

const runtime::ExecutionPlan &
InferenceEngine::plan() const
{
    return snpe_ ? snpe_->plan() : tflite_->plan();
}

sim::DurationNs
InferenceEngine::initNs() const
{
    return snpe_ ? snpe_->initNs() : tflite_->modelInitNs();
}

void
InferenceEngine::appendInvoke(soc::SocSystem &sys, soc::Task &task,
                              const runtime::ExecOptions &opts,
                              runtime::InvokeContext &ctx) const
{
    if (snpe_) {
        snpe_->appendInvoke(sys, task, opts, ctx);
        return;
    }
    tflite_->appendInvoke(sys, task, opts, ctx);
}

std::size_t
InferenceEngine::invokeStepCount() const
{
    return runtime::planStepCount(plan());
}

const InferenceEngine &
cachedEngine(const models::ModelInfo &model, tensor::DType dtype,
             FrameworkKind framework, int threads)
{
    using Key = std::tuple<std::string, tensor::DType, FrameworkKind, int>;
    struct Cache
    {
        std::mutex mu;
        std::map<Key, std::unique_ptr<const InferenceEngine>> engines;
    };
    // Never destroyed, like the graph cache's cells, so no engine dies
    // under a thread that outlives static destruction.
    static Cache *cache = new Cache;
    const std::lock_guard<std::mutex> lock(cache->mu);
    auto &slot = cache->engines[Key{model.id, dtype, framework, threads}];
    if (!slot)
        slot = std::make_unique<const InferenceEngine>(model, dtype,
                                                       framework, threads);
    return *slot;
}

} // namespace aitax::app
