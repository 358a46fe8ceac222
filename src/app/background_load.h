/**
 * @file
 * Background inference load for the multi-tenancy experiments
 * (Fig 9/10): extra processes running back-to-back inferences on the
 * DSP (contending for the single accelerator) or on the CPU
 * (contending with capture/pre-processing).
 */

#ifndef AITAX_APP_BACKGROUND_LOAD_H
#define AITAX_APP_BACKGROUND_LOAD_H

#include <cstdint>
#include <string>

#include "app/engine.h"
#include "runtime/execute.h"
#include "soc/system.h"

namespace aitax::app {

/** Configuration of one background inference process. */
struct BackgroundLoadConfig
{
    const models::ModelInfo *model = nullptr;
    tensor::DType dtype = tensor::DType::UInt8;
    FrameworkKind framework = FrameworkKind::TfliteHexagon;
    int threads = 4;
    std::int32_t processId = 100;
};

/**
 * Runs inferences back-to-back until stopped. Its task name and its
 * invocation names are built once, at construction, and interned on
 * first use, so a steady-state inference formats no string.
 */
class BackgroundInferenceLoop
{
  public:
    BackgroundInferenceLoop(soc::SocSystem &sys,
                            BackgroundLoadConfig cfg);

    /** Begin looping; keeps going until stop() or @p horizon. */
    void start(sim::TimeNs horizon);

    /** Stop after the in-flight inference. */
    void stop() { stopped = true; }

    std::int64_t completedInferences() const { return completed; }

  private:
    soc::SocSystem &sys;
    BackgroundLoadConfig cfg;
    /** Shared process-wide instance (cachedEngine()). */
    const InferenceEngine &engine;
    /** "bg_<model>_p<pid>": every inference task's name. */
    trace::LazyLabel taskName_;
    /** Label "bg_infer_p<pid>" for workers and jobs. */
    runtime::InvokeContext invoke_;
    bool stopped = false;
    sim::TimeNs horizon_ = 0;
    std::int64_t completed = 0;

    void next();
};

} // namespace aitax::app

#endif // AITAX_APP_BACKGROUND_LOAD_H
