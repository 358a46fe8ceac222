/**
 * @file
 * The end-to-end ML application pipeline (Fig 2): data capture ->
 * pre-processing -> framework/inference -> post-processing, packaged
 * in any of the three harness modes, with per-stage latency
 * accounting into a core::TaxReport.
 *
 * A steady-state frame allocates nothing from the heap: its names,
 * pre-processing costs and step count are computed once per
 * Application, the per-run schedule and the frame's stage timestamps
 * are members, and the report and logs are reserved from the run
 * count when the runs are scheduled.
 */

#ifndef AITAX_APP_PIPELINE_H
#define AITAX_APP_PIPELINE_H

#include <array>
#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "app/engine.h"
#include "app/harness.h"
#include "capture/camera.h"
#include "capture/random_source.h"
#include "core/tax_report.h"
#include "drivers/instrumentation.h"
#include "runtime/execute.h"
#include "soc/system.h"

namespace aitax::app {

/** Full pipeline configuration. */
struct PipelineConfig
{
    const models::ModelInfo *model = nullptr;
    tensor::DType dtype = tensor::DType::Float32;
    FrameworkKind framework = FrameworkKind::TfliteCpu;
    HarnessMode mode = HarnessMode::AndroidApp;
    int threads = 4;
    std::int32_t processId = 1;
    capture::CameraConfig camera;
    capture::StdlibFlavor stdlib = capture::StdlibFlavor::Libcpp;
    /** Enable the Section III-D driver instrumentation probe. */
    bool instrumentationEnabled = false;
    /**
     * Offload image pre-processing to the DSP through a FastCV-like
     * vendor vision framework instead of running it in the app's
     * managed runtime — the optimization the paper's introduction
     * suggests ("consider dropping an expensive tensor accelerator in
     * favor of a cheaper DSP that can also do pre-processing").
     * Only meaningful in AndroidApp mode with image models.
     */
    bool preprocessOnDsp = false;
    /**
     * Streaming capture: the camera delivers frames continuously into
     * a depth-1 buffer and the app consumes the latest one, instead of
     * requesting a frame and waiting a full sensor period. This is how
     * production camera apps hide capture latency; with it on, the
     * capture stage shrinks to dequeue + copy time whenever the
     * pipeline runs slower than the sensor.
     */
    bool streamingCapture = false;
    /** Disable the mode's background interference (for isolation). */
    bool suppressInterference = false;
    /** topK size for classification post-processing. */
    std::int32_t topK = 5;
};

/**
 * Witness record for one streaming-capture frame consumption: the
 * frame's sensor arrival time and when the app dequeued it. The
 * verify tier checks causality (consumedAt >= readyAt) — the app
 * must never consume a frame the sensor has not produced yet.
 */
struct FrameConsume
{
    std::int64_t frame = 0;
    sim::TimeNs readyAt = 0;
    sim::TimeNs consumedAt = 0;
};

/**
 * One application instance bound to a simulated SoC.
 */
class Application
{
  public:
    Application(soc::SocSystem &sys, PipelineConfig cfg);

    const PipelineConfig &config() const { return cfg; }
    const HarnessProfile &profile() const { return prof; }
    const InferenceEngine &engine() const { return engine_; }

    /** Framework + model initialization latency (cold start). */
    sim::DurationNs modelInitNs() const { return engine_.initNs(); }

    /**
     * Schedule model init followed by @p n pipeline runs.
     *
     * Stage latencies land in @p report as each run finishes; the
     * caller drives the simulator (sys.run()). One schedule is in
     * flight at a time: schedule again once the runs have finished.
     */
    void scheduleRuns(int n, core::TaxReport &report,
                      std::function<void(sim::TimeNs)> on_done = {});

    // --- Split warm-up API (warm-up prefix memoization) --------------
    // scheduleWarmup() + drive to warmupComplete() + snapshot +
    // scheduleFramesAfterWarmup() is event-for-event identical to a
    // single scheduleRuns(): the only difference is that the init
    // task's completion sets a flag instead of chaining straight into
    // frame 0, and nothing observable happens in between — no RNG
    // draws, no scheduling — so frame events get the same seq numbers
    // either way.

    /** Schedule interference + model init for an @p n-run session. */
    void scheduleWarmup(int n, core::TaxReport &report);

    /** True once the warm-up init task has completed. */
    bool warmupComplete() const { return warmupComplete_; }

    /**
     * Adopt a restored warm-up snapshot (cache hit): the init task's
     * effects are already in the system state, so mark the warm-up
     * complete without scheduling anything.
     */
    void adoptRestoredWarmup() { warmupComplete_ = true; }

    /** Schedule the @p n pipeline runs after warmupComplete(). */
    void scheduleFramesAfterWarmup(
        int n, core::TaxReport &report,
        std::function<void(sim::TimeNs)> on_done = {});

    /** FastRPC breakdowns collected across runs (Fig 7/8 data). */
    const std::vector<soc::FastRpcBreakdown> &rpcLog() const
    {
        return rpcLog_;
    }

    /** Streaming-capture consumption witnesses (empty when off). */
    const std::vector<FrameConsume> &frameLog() const
    {
        return frameLog_;
    }

  private:
    soc::SocSystem &sys;
    PipelineConfig cfg;
    HarnessProfile prof;
    /** Shared process-wide instance (cachedEngine()). */
    const InferenceEngine &engine_;
    drivers::Instrumentation instr;
    capture::CameraModel camera_;
    capture::RandomInputSource randomSource;
    std::vector<soc::FastRpcBreakdown> rpcLog_;
    /** Mode's interference source; arena-resident when sys has one. */
    soc::InterferenceGenerator *interference = nullptr;
    std::unique_ptr<soc::InterferenceGenerator> interferenceOwned_;
    sim::RandomStream rng;
    /** Per-frame names/labels built once instead of per startFrame. */
    std::string pipelineTaskName_;
    std::string initTaskName_;
    std::string fastcvJobName_;
    std::string fastcvFallbackName_;
    trace::LabelId pipelineLabel_;
    trace::LabelId fastcvLabel_;
    /** Degraded-mode time accrued by the in-flight frame. */
    sim::DurationNs frameDegradedNs_ = 0;
    /** The inference's names and sinks ("<model>_infer"). */
    runtime::InvokeContext invoke_;
    /**
     * Image pre-processing chain (AndroidApp image models), a pure
     * function of the config, and its sum for the fused DSP offload.
     */
    std::vector<sim::Work> preItems_;
    sim::Work preTotal_{};
    /** Steps of one frame's program, reserved before it is built. */
    std::size_t frameSteps_ = 0;
    /** FastRPC calls per frame (DSP partitions crossing FastRPC). */
    std::size_t rpcCallsPerFrame_ = 0;
    /** Streaming-capture state: arrival phase and last consumed frame. */
    sim::TimeNs streamPhaseNs = 0;
    std::int64_t lastConsumedFrame = -1;
    std::vector<FrameConsume> frameLog_;
    bool warmupComplete_ = false;
    /** The scheduled runs: count, report and completion callback. */
    int runTotal_ = 0;
    core::TaxReport *runReport_ = nullptr;
    std::function<void(sim::TimeNs)> runDone_;
    /** The in-flight frame: its stage timestamps and rpcLog_ base. */
    std::array<sim::TimeNs, 5> frameTimes_{};
    std::size_t frameRpcBase_ = 0;

    void ensureReportLabel(core::TaxReport &report) const;
    void beginRuns(int n, core::TaxReport &report,
                   std::function<void(sim::TimeNs)> on_done);
    void scheduleInit(int n, core::TaxReport &report,
                      soc::TimeFn on_init_done);
    void startFrame(int index);
    void appendCapture(soc::Task &task, double noise);
    void appendPreProcessing(soc::Task &task, double noise);
    void appendPostProcessing(soc::Task &task, double noise);
    void appendFastcvOffload(soc::Task &task, double noise);
    /** Table I: some post-processing tasks run only for some formats. */
    bool postTaskRuns(models::PostTask post) const;
    std::vector<sim::Work> preProcessingItems() const;
    std::size_t computeFrameSteps() const;
    std::int64_t inputElements() const;
};

} // namespace aitax::app

#endif // AITAX_APP_PIPELINE_H
