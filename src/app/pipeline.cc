#include "app/pipeline.h"

#include <array>
#include <cassert>

#include "faults/injector.h"
#include "imaging/convert.h"
#include "imaging/crop.h"
#include "imaging/normalize.h"
#include "imaging/resize.h"
#include "imaging/rotate.h"
#include "imaging/yuv.h"
#include "postproc/bbox.h"
#include "postproc/keypoints.h"
#include "postproc/logits.h"
#include "postproc/mask.h"
#include "postproc/tokenizer.h"
#include "postproc/topk.h"
#include "runtime/execute.h"

namespace aitax::app {

using core::Stage;
using core::StageLatencies;
using models::PostTask;
using models::PreTask;
using soc::Task;
using soc::WorkClass;

namespace {

/** Characters of text a voice/typing interaction hands Mobile BERT. */
constexpr std::int64_t kBertInputChars = 256;

} // namespace

Application::Application(soc::SocSystem &sys, PipelineConfig cfg_in)
    : sys(sys), cfg(std::move(cfg_in)),
      prof(HarnessProfile::forMode(cfg.mode)),
      engine_(cachedEngine(*cfg.model, cfg.dtype, cfg.framework,
                           cfg.threads)),
      camera_(cfg.camera), randomSource(cfg.stdlib),
      rng(sys.rng().fork("app:" + cfg.model->id)),
      invoke_(cfg.model->id + "_infer", cfg.processId, &rpcLog_,
              &frameDegradedNs_)
{
    assert(cfg.model != nullptr);
    instr.enable(cfg.instrumentationEnabled);
    streamPhaseNs = static_cast<sim::TimeNs>(rng.uniform(
        0.0, static_cast<double>(camera_.framePeriodNs())));
    if (prof.interference && !cfg.suppressInterference) {
        if (sys.arena() != nullptr) {
            interference = sys.arena()->create<soc::InterferenceGenerator>(
                sys.simulator(), sys.scheduler(), prof.interferenceCfg,
                rng.fork("interference"), &sys.tracer(), sys.arena());
        } else {
            interferenceOwned_ =
                std::make_unique<soc::InterferenceGenerator>(
                    sys.simulator(), sys.scheduler(), prof.interferenceCfg,
                    rng.fork("interference"), &sys.tracer());
            interference = interferenceOwned_.get();
        }
    }
    pipelineTaskName_ = cfg.model->id + "_pipeline";
    initTaskName_ = cfg.model->id + "_init";
    fastcvJobName_ = cfg.model->id + "_fastcv_pre";
    pipelineLabel_ = sys.tracer().internLabel(pipelineTaskName_);
    fastcvLabel_ = sys.tracer().internLabel(fastcvJobName_);

    if (prof.fullPipeline &&
        cfg.model->task != models::Task::LanguageProcessing) {
        preItems_ = preProcessingItems();
        for (const auto &w : preItems_)
            preTotal_ += w;
    }
    frameSteps_ = computeFrameSteps();
    if (!sys.dsp().config().tightlyCoupled) {
        for (const auto &part : engine_.plan().partitions)
            rpcCallsPerFrame_ +=
                part.driver->target() == drivers::Target::Dsp ? 1 : 0;
    }
}

std::vector<sim::Work>
Application::preProcessingItems() const
{
    const std::int32_t mw = cfg.model->inputW;
    const std::int32_t mh = cfg.model->inputH;
    const std::int32_t cw = cfg.camera.width;
    const std::int32_t ch = cfg.camera.height;

    // Bitmap formatting always precedes the Table I tasks in apps,
    // and type conversion into the input tensor closes the stage.
    std::vector<sim::Work> items;
    items.reserve(cfg.model->preTasks.size() + 2);
    items.push_back(imaging::nv21ToArgbCost(cw, ch));
    for (PreTask pre : cfg.model->preTasks) {
        switch (pre) {
          case PreTask::BitmapFormat:
            items.push_back(imaging::nv21ToArgbCost(cw, ch));
            break;
          case PreTask::Scale:
            items.push_back(imaging::resizeBilinearCost(mw, mh));
            break;
          case PreTask::Crop:
            items.push_back(imaging::centerCropCost(mw, mh));
            break;
          case PreTask::Normalize:
            items.push_back(imaging::normalizeCost(mw, mh));
            break;
          case PreTask::Rotate:
            // Rotation applies at capture resolution — the quadratic
            // scaling trap the paper points out for PoseNet.
            items.push_back(imaging::rotateCost(cw, ch));
            break;
          case PreTask::TypeConvert:
            items.push_back(imaging::typeConvertCost(
                mw, mh, tensor::isQuantized(cfg.dtype)));
            break;
          case PreTask::Tokenize:
            items.push_back(postproc::WordpieceTokenizer::tokenizeCost(
                kBertInputChars));
            break;
        }
    }
    items.push_back(imaging::typeConvertCost(
        mw, mh, tensor::isQuantized(cfg.dtype)));
    return items;
}

std::size_t
Application::computeFrameSteps() const
{
    // Five stage markers around the four stages, each stage's steps
    // counted as its append function builds them.
    const std::size_t capture = prof.usesCamera ? 2 : 1;
    const std::size_t pre = (preItems_.empty() || cfg.preprocessOnDsp)
                                ? 1
                                : preItems_.size();
    std::size_t post = 0;
    if (cfg.mode != HarnessMode::CliBenchmark) {
        for (PostTask task : cfg.model->postTasks)
            post += postTaskRuns(task) ? 1 : 0;
    }
    return 5 + capture + pre + engine_.invokeStepCount() + post;
}

std::int64_t
Application::inputElements() const
{
    if (cfg.model->task == models::Task::LanguageProcessing)
        return cfg.model->seqLen;
    return static_cast<std::int64_t>(cfg.model->inputH) *
           cfg.model->inputW * cfg.model->inputChannels;
}

void
Application::appendCapture(Task &task, double noise)
{
    if (prof.usesCamera) {
        if (cfg.model->task == models::Task::LanguageProcessing) {
            // Text arrival: IME/ASR hand-off delay.
            task.sleep(sim::msToNs(2.0));
            task.compute({5.0e5 * noise, 1.0e5}, WorkClass::Scalar);
            return;
        }
        soc::SocSystem *system = &sys;
        if (cfg.streamingCapture) {
            // Depth-1 buffered stream: frames arrive every period at
            // streamPhaseNs + k*period; the app consumes the newest
            // one, waiting only if it outran the sensor.
            Application *self = this;
            task.block([system, self](Task &, soc::BlockResume resume) {
                const auto period = self->camera_.framePeriodNs();
                const sim::TimeNs now = system->simulator().now();
                // Newest frame the sensor has delivered by `now`, or
                // -1 before the first arrival. The naive
                // (now - phase) / period truncates toward zero, so a
                // consume *before* the phase offset would claim frame
                // 0 already exists — branch explicitly instead.
                std::int64_t latest = -1;
                if (now >= self->streamPhaseNs)
                    latest = (now - self->streamPhaseNs) / period;
                sim::DurationNs wait;
                if (latest > self->lastConsumedFrame) {
                    // A fresh frame is already buffered.
                    self->lastConsumedFrame = latest;
                    self->frameLog_.push_back(
                        {latest,
                         self->streamPhaseNs + latest * period, now});
                    wait = sim::usToNs(200.0); // dequeue latency
                } else {
                    // Outran the sensor (or its first frame): wait
                    // for the next arrival.
                    const std::int64_t next =
                        self->lastConsumedFrame + 1;
                    self->lastConsumedFrame = next;
                    const sim::TimeNs ready =
                        self->streamPhaseNs + next * period;
                    self->frameLog_.push_back({next, ready, ready});
                    wait = ready - now;
                }
                system->simulator().scheduleIn(wait, resume);
            });
            task.compute(camera_.frameGlueWork() * noise,
                         WorkClass::Scalar);
            return;
        }
        // On-demand capture: wait for the next preview frame (delivery
        // is paced by the sensor), then copy it out of the HAL buffer.
        const capture::CameraModel *cam = &camera_;
        auto *stream = &rng;
        task.block([system, cam, stream](Task &, soc::BlockResume resume) {
            const sim::DurationNs wait = cam->waitForFrameNs(
                system->simulator().now(), *stream);
            system->simulator().scheduleIn(wait, resume);
        });
        task.compute(camera_.frameGlueWork() * noise, WorkClass::Scalar);
        return;
    }

    // Benchmark modes: "capture" is random input generation.
    tensor::DType gen_dtype = cfg.dtype;
    if (cfg.model->task == models::Task::LanguageProcessing)
        gen_dtype = tensor::DType::Int32;
    task.compute(randomSource.generationWork(inputElements(), gen_dtype) *
                     noise,
                 WorkClass::Scalar);
}

void
Application::appendPreProcessing(Task &task, double noise)
{
    if (!prof.fullPipeline) {
        // Benchmarks generate inputs directly in the model's shape and
        // type; only a trivial layout check remains.
        task.compute(runtime::workForCpuNs(30.0e3) * noise,
                     WorkClass::Scalar);
        return;
    }

    const double factor = prof.managedRuntimeFactor * noise;

    if (cfg.model->task == models::Task::LanguageProcessing) {
        task.compute(postproc::WordpieceTokenizer::tokenizeCost(
                         kBertInputChars) *
                         factor,
                     WorkClass::Scalar);
        return;
    }

    if (cfg.preprocessOnDsp) {
        appendFastcvOffload(task, noise);
        return;
    }

    for (const auto &w : preItems_)
        task.compute(w * factor, WorkClass::Scalar);
}

void
Application::appendFastcvOffload(Task &task, double noise)
{
    // FastCV-style vision offload: the whole chain runs as one fused
    // DSP job; the CPU only pays the FastRPC round trip. The closures
    // keep the frame's noise and read the rest from the Application.
    Application *self = this;
    task.block([self, noise](Task &, soc::BlockResume resume) {
        soc::AccelJob job;
        job.label = self->fastcvLabel_;
        // Vision kernels vectorize well on HVX but not perfectly.
        job.ops = self->preTotal_.flops * noise / 0.8;
        job.bytes = self->preTotal_.bytes;
        job.format = tensor::DType::UInt8;
        self->sys.fastrpc().call(
            self->cfg.processId, self->camera_.frameBytes(),
            std::move(job),
            [self, noise, resume](const soc::FastRpcBreakdown &breakdown,
                                  const soc::AccelJob &) {
                // Retry overhead of the vision offload is this frame's
                // degraded time (not in rpcLog_, which holds inference
                // calls only).
                self->frameDegradedNs_ += breakdown.retryNs;
                if (!breakdown.failed) {
                    resume();
                    return;
                }
                // Permanent failure: run the chain on the CPU, at the
                // managed-runtime cost of the non-offloaded path.
                soc::SocSystem &system = self->sys;
                const sim::TimeNs began = system.simulator().now();
                if (faults::FaultInjector *faults = system.faults())
                    faults->recordFallback(faults::ChainLink::Dsp,
                                           faults::ChainLink::Cpu, began);
                if (self->fastcvFallbackName_.empty())
                    self->fastcvFallbackName_ =
                        self->fastcvJobName_ + "_fallback_cpu";
                auto worker = soc::makeTask(system.arena(),
                                            self->fastcvFallbackName_);
                worker->compute({self->preTotal_.flops *
                                     self->prof.managedRuntimeFactor *
                                     noise,
                                 self->preTotal_.bytes},
                                WorkClass::Scalar);
                worker->setOnComplete(
                    [self, began, resume](sim::TimeNs end) {
                        const sim::DurationNs elapsed = end - began;
                        if (faults::FaultInjector *faults =
                                self->sys.faults())
                            faults->recordDegradedExec(elapsed);
                        self->frameDegradedNs_ += elapsed;
                        resume();
                    });
                system.scheduler().submit(std::move(worker));
            });
    });
}

void
Application::appendPostProcessing(Task &task, double noise)
{
    if (cfg.mode == HarnessMode::CliBenchmark) {
        // The benchmark utility discards outputs.
        return;
    }
    const double factor =
        (cfg.mode == HarnessMode::AndroidApp ? prof.managedRuntimeFactor
                                             : 1.0) *
        noise;

    for (PostTask post : cfg.model->postTasks) {
        sim::Work work{};
        switch (post) {
          case PostTask::TopK:
            work = postproc::topKCost(cfg.model->numClasses, cfg.topK);
            break;
          case PostTask::Dequantize:
            if (!postTaskRuns(post))
                continue;
            work = postproc::dequantizeCost(cfg.model->numClasses);
            break;
          case PostTask::MaskFlatten:
            work = postproc::flattenMaskCost(cfg.model->inputH,
                                             cfg.model->inputW, 21);
            break;
          case PostTask::Keypoints:
            work = postproc::decodeKeypointsCost(
                cfg.model->inputH / 16, cfg.model->inputW / 16, 17);
            break;
          case PostTask::BBoxDecode:
            work = postproc::detectionPostprocCost(834, 91);
            break;
          case PostTask::Logits:
            work = postproc::bestSpanCost(cfg.model->seqLen, 30);
            break;
        }
        task.compute(work * factor, WorkClass::Scalar);
    }
}

bool
Application::postTaskRuns(PostTask post) const
{
    // Table I: dequantization is performed only with quantized models.
    return post != PostTask::Dequantize || tensor::isQuantized(cfg.dtype);
}

void
Application::ensureReportLabel(core::TaxReport &report) const
{
    if (report.label().empty()) {
        report.setLabel(cfg.model->id + "/" +
                        std::string(tensor::dtypeName(cfg.dtype)) + "/" +
                        std::string(frameworkName(cfg.framework)) + "/" +
                        std::string(harnessModeName(cfg.mode)));
    }
}

void
Application::scheduleInit(int n, core::TaxReport &report,
                          soc::TimeFn on_init_done)
{
    assert(n > 0);
    ensureReportLabel(report);

    if (interference) {
        // Generously sized horizon; leftover interference arrivals
        // after the last frame only extend the (cheap) event loop.
        const auto estimate = static_cast<sim::DurationNs>(n) *
                                  sim::msToNs(400.0) +
                              sim::secToNs(1.0);
        interference->start(estimate);
    }

    // Model/framework initialization runs first, as CPU work.
    auto init = soc::makeTask(sys.arena(), initTaskName_);
    init->compute(
        runtime::workForCpuNs(static_cast<double>(engine_.initNs())),
        WorkClass::Scalar);
    init->setOnComplete(std::move(on_init_done));
    sys.scheduler().submit(std::move(init));
}

void
Application::beginRuns(int n, core::TaxReport &report,
                       std::function<void(sim::TimeNs)> on_done)
{
    runTotal_ = n;
    runReport_ = &report;
    runDone_ = std::move(on_done);
    // Room for everything the first runs append, so no frame regrows
    // a vector. Later schedules on this Application grow the logs by
    // doubling: exact steps per schedule would copy them every time.
    const auto runs = static_cast<std::size_t>(n);
    report.reserve(runs, sys.faults() != nullptr);
    if (rpcLog_.empty())
        rpcLog_.reserve(runs * rpcCallsPerFrame_);
    if (frameLog_.empty() && cfg.streamingCapture && prof.usesCamera)
        frameLog_.reserve(runs);
}

void
Application::scheduleRuns(int n, core::TaxReport &report,
                          std::function<void(sim::TimeNs)> on_done)
{
    beginRuns(n, report, std::move(on_done));
    scheduleInit(n, report, [this](sim::TimeNs) { startFrame(0); });
}

void
Application::scheduleWarmup(int n, core::TaxReport &report)
{
    warmupComplete_ = false;
    scheduleInit(n, report,
                 [this](sim::TimeNs) { warmupComplete_ = true; });
}

void
Application::scheduleFramesAfterWarmup(
    int n, core::TaxReport &report,
    std::function<void(sim::TimeNs)> on_done)
{
    assert(n > 0);
    assert(warmupComplete_);
    ensureReportLabel(report);
    beginRuns(n, report, std::move(on_done));
    startFrame(0);
}

void
Application::startFrame(int index)
{
    auto task = soc::makeTask(sys.arena(), pipelineTaskName_);
    task->setTraceLabel(pipelineLabel_);
    task->reserve(frameSteps_);
    frameRpcBase_ = rpcLog_.size();

    const double noise =
        rng.lognormalFactor(prof.computeNoiseSigma);

    // One frame is in flight at a time, so its stage timestamps are
    // members.
    auto stamp = [this](std::size_t stage) {
        return [this, stage](sim::TimeNs t) { frameTimes_[stage] = t; };
    };
    task->marker(stamp(0));
    appendCapture(*task, noise);
    task->marker(stamp(1));
    appendPreProcessing(*task, noise);
    task->marker(stamp(2));

    runtime::ExecOptions exec;
    exec.cpuThreads = cfg.threads;
    exec.noiseSigma = prof.computeNoiseSigma;
    exec.instrumentation = &instr;
    engine_.appendInvoke(sys, *task, exec, invoke_);

    task->marker(stamp(3));
    appendPostProcessing(*task, noise);
    task->marker(stamp(4));
    assert(task->stepCount() == frameSteps_);

    task->setOnComplete([this, index](sim::TimeNs end) {
        const auto &times = frameTimes_;
        StageLatencies lat;
        lat[Stage::DataCapture] = times[1] - times[0];
        lat[Stage::PreProcessing] = times[2] - times[1];
        lat[Stage::Inference] = times[3] - times[2];
        lat[Stage::PostProcessing] = times[4] - times[3];
        runReport_->add(lat);
        if (sys.faults() != nullptr) {
            // Degraded-mode attribution for this frame: retry
            // overhead on its FastRPC calls plus any time spent on
            // fallback devices. Included in the stage walls above —
            // this is a column of the tax, not an extra stage.
            sim::DurationNs degraded = frameDegradedNs_;
            for (std::size_t i = frameRpcBase_; i < rpcLog_.size(); ++i)
                degraded += rpcLog_[i].retryNs;
            runReport_->addDegraded(sim::nsToMs(degraded));
            frameDegradedNs_ = 0;
        }
        if (index + 1 < runTotal_) {
            startFrame(index + 1);
            return;
        }
        // Taken out first: the callback may schedule the next runs.
        auto done = std::move(runDone_);
        runDone_ = nullptr;
        if (done)
            done(end);
    });
    sys.scheduler().submit(std::move(task));
}

} // namespace aitax::app
