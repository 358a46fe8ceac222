/**
 * @file
 * google-benchmark microbenchmarks of the *real* pre-/post-processing
 * kernel implementations. These measure host wall-clock (not simulated
 * time): they document that the pipeline algorithms the simulator's
 * cost models describe are genuinely implemented and exercised.
 */

#include <benchmark/benchmark.h>

#include <cstddef>
#include <memory>
#include <string>
#include <vector>

#include "app/background_load.h"
#include "app/pipeline.h"
#include "imaging/convert.h"
#include "imaging/crop.h"
#include "imaging/letterbox.h"
#include "imaging/normalize.h"
#include "imaging/resize.h"
#include "imaging/rotate.h"
#include "imaging/yuv.h"
#include "models/zoo.h"
#include "postproc/bbox.h"
#include "postproc/mask.h"
#include "postproc/multipose.h"
#include "postproc/tokenizer.h"
#include "postproc/topk.h"
#include "sim/arena.h"
#include "sim/engine_mode.h"
#include "sim/event_queue.h"
#include "sim/random.h"
#include "soc/chipsets.h"
#include "soc/system.h"
#include "soc/task.h"
#include "trace/chrome_trace.h"
#include "trace/tracer.h"
#include "verify/scenario.h"

namespace {

using namespace aitax;

void
BM_Nv21ToArgb(benchmark::State &state)
{
    const auto w = static_cast<std::int32_t>(state.range(0));
    const auto h = static_cast<std::int32_t>(state.range(1));
    const auto frame = imaging::makeTestFrameNv21(w, h, 1);
    for (auto _ : state) {
        auto rgb = imaging::nv21ToArgb(frame);
        benchmark::DoNotOptimize(rgb.data());
    }
    state.SetItemsProcessed(state.iterations() * w * h);
}
BENCHMARK(BM_Nv21ToArgb)->Args({640, 480})->Args({1280, 720});

void
BM_ResizeBilinear(benchmark::State &state)
{
    const auto out = static_cast<std::int32_t>(state.range(0));
    const auto src =
        imaging::nv21ToArgb(imaging::makeTestFrameNv21(640, 480, 1));
    for (auto _ : state) {
        auto scaled = imaging::resizeBilinear(src, out, out);
        benchmark::DoNotOptimize(scaled.data());
    }
    state.SetItemsProcessed(state.iterations() * out * out);
}
BENCHMARK(BM_ResizeBilinear)->Arg(224)->Arg(300)->Arg(513);

void
BM_CenterCrop(benchmark::State &state)
{
    const auto src =
        imaging::nv21ToArgb(imaging::makeTestFrameNv21(640, 480, 1));
    for (auto _ : state) {
        auto cropped = imaging::centerCrop(src, 480, 480);
        benchmark::DoNotOptimize(cropped.data());
    }
}
BENCHMARK(BM_CenterCrop);

void
BM_Normalize(benchmark::State &state)
{
    const auto n = static_cast<std::int32_t>(state.range(0));
    imaging::Image src(imaging::PixelFormat::Argb8888, n, n);
    for (auto _ : state) {
        auto norm =
            imaging::normalizeToFloat(src, {127.5f, 127.5f});
        benchmark::DoNotOptimize(norm.data());
    }
    state.SetItemsProcessed(state.iterations() * n * n);
}
BENCHMARK(BM_Normalize)->Arg(224)->Arg(513);

void
BM_Rotate90(benchmark::State &state)
{
    const auto src =
        imaging::nv21ToArgb(imaging::makeTestFrameNv21(640, 480, 1));
    for (auto _ : state) {
        auto rotated = imaging::rotate(src, imaging::Rotation::Deg90);
        benchmark::DoNotOptimize(rotated.data());
    }
}
BENCHMARK(BM_Rotate90);

void
BM_Letterbox(benchmark::State &state)
{
    const auto src =
        imaging::nv21ToArgb(imaging::makeTestFrameNv21(640, 480, 1));
    for (auto _ : state) {
        auto boxed = imaging::letterbox(src, 300, 300, 128);
        benchmark::DoNotOptimize(boxed.data());
    }
}
BENCHMARK(BM_Letterbox);

void
BM_Grayscale(benchmark::State &state)
{
    const auto src =
        imaging::nv21ToArgb(imaging::makeTestFrameNv21(640, 480, 1));
    for (auto _ : state) {
        auto gray = imaging::toGrayscale(src);
        benchmark::DoNotOptimize(gray.data());
    }
}
BENCHMARK(BM_Grayscale);

void
BM_MultiposeDecode(benchmark::State &state)
{
    using namespace postproc;
    tensor::Tensor heat(tensor::Shape::nhwc(17, 24, kPoseParts),
                        tensor::DType::Float32);
    tensor::Tensor offs(tensor::Shape::nhwc(17, 24, 2 * kPoseParts),
                        tensor::DType::Float32);
    tensor::Tensor fwd(tensor::Shape::nhwc(17, 24, 32),
                       tensor::DType::Float32);
    tensor::Tensor bwd(tensor::Shape::nhwc(17, 24, 32),
                       tensor::DType::Float32);
    sim::RandomStream rng(5);
    for (auto &v : heat.data<float>())
        v = static_cast<float>(rng.nextDouble()) * 0.6f;
    for (auto _ : state) {
        auto poses =
            decodeMultiplePoses(heat, offs, fwd, bwd, 16, 5, 0.5f,
                                20.0f);
        benchmark::DoNotOptimize(poses.data());
    }
}
BENCHMARK(BM_MultiposeDecode);

void
BM_QuantizeInput(benchmark::State &state)
{
    imaging::Image src(imaging::PixelFormat::RgbF32, 224, 224);
    const auto qp = tensor::chooseQuantParams(-1.0f, 1.0f);
    for (auto _ : state) {
        auto t = imaging::toQuantizedTensor(src, qp);
        benchmark::DoNotOptimize(t.rawData());
    }
}
BENCHMARK(BM_QuantizeInput);

void
BM_TopK(benchmark::State &state)
{
    sim::RandomStream rng(1);
    std::vector<float> scores(1001);
    for (auto &s : scores)
        s = static_cast<float>(rng.nextDouble());
    for (auto _ : state) {
        auto top = postproc::topK(std::span<const float>(scores), 5);
        benchmark::DoNotOptimize(top.data());
    }
}
BENCHMARK(BM_TopK);

void
BM_MaskFlatten(benchmark::State &state)
{
    tensor::Tensor logits(tensor::Shape::nhwc(513, 513, 21),
                          tensor::DType::Float32);
    sim::RandomStream rng(2);
    for (auto &v : logits.data<float>())
        v = static_cast<float>(rng.nextDouble());
    for (auto _ : state) {
        auto mask = postproc::flattenMask(logits);
        benchmark::DoNotOptimize(mask.labels.data());
    }
}
BENCHMARK(BM_MaskFlatten);

void
BM_DetectionPostproc(benchmark::State &state)
{
    const auto anchors = postproc::makeAnchorGrid(13, 13, 6);
    sim::RandomStream rng(3);
    std::vector<float> deltas(anchors.size() * 4);
    std::vector<float> scores(anchors.size() * 91);
    for (auto &d : deltas)
        d = static_cast<float>(rng.gaussian()) * 0.5f;
    for (auto &s : scores)
        s = static_cast<float>(rng.nextDouble()) * 0.6f;
    for (auto _ : state) {
        auto dets = postproc::decodeDetections(anchors, deltas, scores,
                                               91, 0.5f);
        auto kept = postproc::nonMaxSuppression(std::move(dets), 0.5f,
                                                20);
        benchmark::DoNotOptimize(kept.data());
    }
}
BENCHMARK(BM_DetectionPostproc);

void
BM_Tokenize(benchmark::State &state)
{
    postproc::WordpieceTokenizer tok;
    const std::string text =
        "the phone camera works and the model runs fast on this new "
        "smart deep net for many people using it every day";
    for (auto _ : state) {
        auto ids = tok.tokenize(text, 128);
        benchmark::DoNotOptimize(ids.data());
    }
}
BENCHMARK(BM_Tokenize);

// --- simulator hot paths ---------------------------------------------
// The event queue and model-graph construction dominate sweep setup
// and event dispatch; these isolate the claims in docs/PERFORMANCE.md.

void
BM_EventQueueSchedulePop(benchmark::State &state)
{
    const auto n = static_cast<int>(state.range(0));
    sim::RandomStream rng(11);
    std::vector<sim::TimeNs> when(static_cast<std::size_t>(n));
    for (auto &w : when)
        w = rng.uniformInt(0, 1'000'000);
    std::int64_t sink = 0;
    for (auto _ : state) {
        sim::EventQueue q;
        for (int i = 0; i < n; ++i)
            q.schedule(when[static_cast<std::size_t>(i)],
                       [&sink] { ++sink; });
        while (!q.empty())
            q.popAndRun();
        benchmark::DoNotOptimize(sink);
    }
    state.SetItemsProcessed(state.iterations() * n);
}
BENCHMARK(BM_EventQueueSchedulePop)->Arg(1'000)->Arg(100'000);

/**
 * The Fast engine's target shape: a deep daemon backlog parks in the
 * heap while a foreground chain of events — each scheduled from the
 * previous one's callback, the chained-arrival pattern the
 * interference sources use — ping-pongs through the one-slot front
 * cache without touching the heap. The Reference engine sifts the
 * full heap on every operation. Arg 0 selects the engine
 * (0 = Reference, 1 = Fast); items/sec is events/sec.
 */
void
BM_EventQueueEngineChained(benchmark::State &state)
{
    const auto mode = state.range(0) == 0 ? sim::EngineMode::Reference
                                          : sim::EngineMode::Fast;
    const auto n = static_cast<int>(state.range(1));
    std::int64_t fired = 0;
    for (auto _ : state) {
        sim::EventQueue q(mode);
        for (int i = 0; i < 512; ++i)
            q.schedule(1'000'000'000 + i, [] {});
        struct Chain
        {
            sim::EventQueue &q;
            sim::TimeNs t;
            int left;
            std::int64_t *fired;
            void fire()
            {
                ++*fired;
                if (--left > 0) {
                    t += 10;
                    q.schedule(t, [this] { fire(); });
                }
            }
        } chain{q, 0, n, &fired};
        q.schedule(0, [&chain] { chain.fire(); });
        // Drain the foreground chain only; the backlog stays parked.
        for (int i = 0; i < n; ++i)
            q.popAndRun();
        benchmark::DoNotOptimize(fired);
    }
    state.SetLabel(sim::engineModeName(mode));
    state.SetItemsProcessed(state.iterations() * n);
}
BENCHMARK(BM_EventQueueEngineChained)
    ->Args({0, 100'000})
    ->Args({1, 100'000});

/** Bulk schedule+drain, both engines side by side (Arg 0 as above). */
void
BM_EventQueueEngineSchedulePop(benchmark::State &state)
{
    const auto mode = state.range(0) == 0 ? sim::EngineMode::Reference
                                          : sim::EngineMode::Fast;
    const auto n = static_cast<int>(state.range(1));
    sim::RandomStream rng(13);
    std::vector<sim::TimeNs> when(static_cast<std::size_t>(n));
    for (auto &w : when)
        w = rng.uniformInt(0, 1'000'000);
    std::int64_t sink = 0;
    for (auto _ : state) {
        sim::EventQueue q(mode);
        for (int i = 0; i < n; ++i)
            q.schedule(when[static_cast<std::size_t>(i)],
                       [&sink] { ++sink; });
        while (!q.empty())
            q.popAndRun();
        benchmark::DoNotOptimize(sink);
    }
    state.SetLabel(sim::engineModeName(mode));
    state.SetItemsProcessed(state.iterations() * n);
}
BENCHMARK(BM_EventQueueEngineSchedulePop)
    ->Args({0, 100'000})
    ->Args({1, 100'000});

/**
 * The CPU slice path: one quiet SocSystem (no background load, tracing
 * off) runs a lone task whose compute step spans Arg 0 time slices, so
 * nearly every event is a slice expiry that renews the slice or, with
 * the preset's load-balance probability, migrates the task. items/sec
 * is events/sec.
 */
void
BM_SchedulerSlicePath(benchmark::State &state)
{
    const soc::SocConfig cfg = soc::makeSnapdragon845();
    const soc::CpuCoreConfig &big = cfg.cluster.cores.back();
    const double ops_per_slice =
        big.freqGhz * 1e9 * big.scalarOpsPerCycle *
        static_cast<double>(cfg.cluster.timeSliceNs) / sim::kNsPerSec;
    const double ops = ops_per_slice * static_cast<double>(state.range(0));
    soc::SocSystem sys(cfg);
    sys.tracer().setEnabled(false);
    std::uint64_t events = 0;
    for (auto _ : state) {
        const std::uint64_t before = sys.simulator().eventsExecuted();
        auto task = std::make_shared<soc::Task>("lone");
        task->compute({ops, 0.0}, soc::WorkClass::Scalar);
        sys.scheduler().submit(std::move(task));
        sys.run();
        events += sys.simulator().eventsExecuted() - before;
    }
    benchmark::DoNotOptimize(sys.scheduler().migrations());
    state.SetItemsProcessed(static_cast<std::int64_t>(events));
}
BENCHMARK(BM_SchedulerSlicePath)->Arg(1'000);

/**
 * Per-scenario construction, the step before a scenario's event loop:
 * arena-construct the SocSystem, the Application and the background
 * loops of one fuzz-corpus config, as verify::runScenario does, and
 * reset the arena. Nothing is scheduled or run. Iterations cycle
 * through a fixed list of configs; items/sec is scenarios/sec.
 */
void
BM_ScenarioConstruct(benchmark::State &state)
{
    std::vector<verify::Scenario> scenarios;
    for (int i = 0; i < 64; ++i)
        scenarios.push_back(verify::fuzzScenario(2021, i));
    const auto *bg_model = models::findModel("mobilenet_v1");
    sim::Arena arena;
    std::size_t next = 0;
    for (auto _ : state) {
        const verify::Scenario &s = scenarios[next];
        next = (next + 1) % scenarios.size();
        sim::ArenaResetGuard guard(arena);
        soc::SocSystem &sys = *arena.create<soc::SocSystem>(
            soc::platformByName(s.socName), s.seed, sim::EngineMode::Fast,
            &arena);
        app::PipelineConfig cfg;
        cfg.model = models::findModel(s.modelId);
        cfg.dtype = s.dtype;
        cfg.framework = s.framework;
        cfg.mode = s.mode;
        cfg.threads = s.threads;
        cfg.instrumentationEnabled = s.instrumentation;
        cfg.streamingCapture = s.streaming;
        benchmark::DoNotOptimize(arena.create<app::Application>(sys, cfg));
        auto add_loops = [&](int count, app::FrameworkKind fw, int pid) {
            for (int i = 0; i < count; ++i) {
                app::BackgroundLoadConfig bg;
                bg.model = bg_model;
                bg.framework = fw;
                bg.processId = pid + i;
                benchmark::DoNotOptimize(
                    arena.create<app::BackgroundInferenceLoop>(sys, bg));
            }
        };
        add_loops(s.dspLoadProcesses, app::FrameworkKind::TfliteHexagon, 100);
        add_loops(s.cpuLoadProcesses, app::FrameworkKind::TfliteCpu, 200);
    }
    state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_ScenarioConstruct);

/**
 * Warm frames on one SocSystem: build each frame's task program and
 * run it, offloads included, after a single model init. Arg 0 is the
 * TFLite GPU delegate (fp32), 1 the Hexagon delegate (uint8, through
 * FastRPC), 2 the 4-thread CPU pool (fp32) beside one DSP and one CPU
 * background loop, all in CLI-benchmark mode. The loops live for one
 * iteration. items/sec is frames/sec.
 */
void
BM_FrameProgram(benchmark::State &state)
{
    constexpr int kFramesPerIteration = 10;
    app::PipelineConfig cfg;
    cfg.model = models::findModel("mobilenet_v1");
    cfg.mode = app::HarnessMode::CliBenchmark;
    int loop_kinds = 0;
    switch (state.range(0)) {
      case 0:
        cfg.framework = app::FrameworkKind::TfliteGpu;
        cfg.dtype = tensor::DType::Float32;
        break;
      case 1:
        cfg.framework = app::FrameworkKind::TfliteHexagon;
        cfg.dtype = tensor::DType::UInt8;
        break;
      default:
        cfg.framework = app::FrameworkKind::TfliteCpu;
        cfg.dtype = tensor::DType::Float32;
        cfg.threads = 4;
        loop_kinds = 2;
        break;
    }
    state.SetLabel(std::string(app::frameworkName(cfg.framework)));
    soc::SocSystem sys(soc::makeSnapdragon845(), 7);
    app::Application application(sys, cfg);
    core::TaxReport warmup_report;
    application.scheduleWarmup(kFramesPerIteration, warmup_report);
    sys.simulator().runUntilCondition(
        [&application] { return application.warmupComplete(); });

    std::vector<std::unique_ptr<app::BackgroundInferenceLoop>> loops;
    for (auto _ : state) {
        loops.clear();
        for (int i = 0; i < loop_kinds; ++i) {
            app::BackgroundLoadConfig bg;
            bg.model = cfg.model;
            bg.framework = i == 0 ? app::FrameworkKind::TfliteHexagon
                                  : app::FrameworkKind::TfliteCpu;
            bg.processId = 100 * (i + 1);
            loops.push_back(
                std::make_unique<app::BackgroundInferenceLoop>(sys, bg));
            loops.back()->start(sys.simulator().now() + sim::secToNs(60.0));
        }
        // A bounded trace: keep the interned names, drop the records.
        sys.tracer().clear();
        core::TaxReport report;
        application.scheduleFramesAfterWarmup(
            kFramesPerIteration, report, [&loops](sim::TimeNs) {
                for (auto &loop : loops)
                    loop->stop();
            });
        sys.run();
        benchmark::DoNotOptimize(report.endToEndMeanMs());
    }
    state.SetItemsProcessed(state.iterations() * kFramesPerIteration);
}
BENCHMARK(BM_FrameProgram)->Arg(0)->Arg(1)->Arg(2);

void
BM_GraphBuildUncached(benchmark::State &state)
{
    const auto *info = models::findModel("inception_v3");
    for (auto _ : state) {
        const auto g =
            models::buildGraph(*info, tensor::DType::Float32);
        benchmark::DoNotOptimize(g.opCount());
    }
}
BENCHMARK(BM_GraphBuildUncached);

void
BM_GraphCached(benchmark::State &state)
{
    const auto *info = models::findModel("inception_v3");
    // First call builds; steady state is a shared_ptr copy.
    (void)models::cachedGraph(*info, tensor::DType::Float32);
    for (auto _ : state) {
        const auto g =
            models::cachedGraph(*info, tensor::DType::Float32);
        benchmark::DoNotOptimize(g->opCount());
    }
}
BENCHMARK(BM_GraphCached);

// --- tracer hot paths ------------------------------------------------
// The tracer is on the simulator's event dispatch path (scheduler,
// accelerators, drivers record through it), so its record and
// serialize costs are the simulator's own probe effect. See
// docs/PERFORMANCE.md "Tracing hot path".

struct TraceOp
{
    std::size_t track;
    std::size_t label;
    sim::TimeNs begin;
    sim::TimeNs end;
};

std::vector<TraceOp>
makeTraceOps(std::size_t n, std::size_t tracks, std::size_t labels)
{
    sim::RandomStream rng(21);
    std::vector<TraceOp> ops;
    ops.reserve(n);
    sim::TimeNs now = 0;
    for (std::size_t i = 0; i < n; ++i) {
        TraceOp op;
        op.track = static_cast<std::size_t>(
            rng.uniformInt(0, static_cast<int>(tracks) - 1));
        op.label = static_cast<std::size_t>(
            rng.uniformInt(0, static_cast<int>(labels) - 1));
        op.begin = now;
        op.end = now + 1 + rng.uniformInt(0, 999);
        now += 500;
        ops.push_back(op);
    }
    return ops;
}

void
BM_TracerRecordInterned(benchmark::State &state)
{
    const auto n = static_cast<std::size_t>(state.range(0));
    const auto ops = makeTraceOps(n, 8, 16);
    trace::Tracer t;
    std::vector<trace::TrackId> tracks;
    for (int i = 0; i < 8; ++i)
        tracks.push_back(t.internTrack("core" + std::to_string(i)));
    std::vector<trace::LabelId> labels;
    for (int i = 0; i < 16; ++i)
        labels.push_back(t.internLabel("job_" + std::to_string(i)));
    for (auto _ : state) {
        t.clear(); // keeps ids and capacity: steady-state record
        for (const auto &op : ops)
            t.recordInterval(tracks[op.track], labels[op.label],
                             op.begin, op.end);
        benchmark::DoNotOptimize(t.intervalCount());
    }
    state.SetItemsProcessed(state.iterations() *
                            static_cast<std::int64_t>(n));
}
BENCHMARK(BM_TracerRecordInterned)->Arg(1'000'000);

void
BM_ChromeTraceSerialize(benchmark::State &state)
{
    // Escape-heavy labels: every record needs \" and \\ rewriting
    // plus a control character, the worst case for appendEscaped.
    const auto n = static_cast<std::size_t>(state.range(0));
    const auto ops = makeTraceOps(n, 8, 16);
    trace::Tracer t;
    std::vector<trace::TrackId> tracks;
    for (int i = 0; i < 8; ++i)
        tracks.push_back(t.internTrack("core" + std::to_string(i)));
    std::vector<trace::LabelId> labels;
    for (int i = 0; i < 16; ++i)
        labels.push_back(t.internLabel("job\"q\\\t" +
                                       std::to_string(i)));
    for (const auto &op : ops)
        t.recordInterval(tracks[op.track], labels[op.label], op.begin,
                         op.end);
    for (auto _ : state) {
        const auto json = trace::chromeTraceString(t);
        benchmark::DoNotOptimize(json.data());
    }
    state.SetItemsProcessed(state.iterations() *
                            static_cast<std::int64_t>(n));
}
BENCHMARK(BM_ChromeTraceSerialize)->Arg(100'000);

void
BM_TracerUtilization(benchmark::State &state)
{
    const std::size_t n = 10'000;
    const auto buckets = static_cast<std::size_t>(state.range(0));
    const auto ops = makeTraceOps(n, 1, 16);
    trace::Tracer t;
    const trace::TrackId track = t.internTrack("core0");
    std::vector<trace::LabelId> labels;
    for (int i = 0; i < 16; ++i)
        labels.push_back(t.internLabel("job_" + std::to_string(i)));
    sim::TimeNs t1 = 0;
    for (const auto &op : ops) {
        t.recordInterval(track, labels[op.label], op.begin, op.end);
        t1 = std::max(t1, op.end);
    }
    for (auto _ : state) {
        const auto u = t.utilization("core0", 0, t1, buckets);
        benchmark::DoNotOptimize(u.data());
    }
    state.SetItemsProcessed(state.iterations() *
                            static_cast<std::int64_t>(n));
}
BENCHMARK(BM_TracerUtilization)->Arg(256);

} // namespace

BENCHMARK_MAIN();
