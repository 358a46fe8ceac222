/**
 * @file
 * Integration tests: miniature replicas of every experiment in the
 * paper's evaluation, asserting the *shape* of each result — who wins,
 * by roughly what factor, and in which direction effects move.
 */

#include <gtest/gtest.h>

#include "app/background_load.h"
#include "app/pipeline.h"
#include "core/analyzer.h"
#include "soc/chipsets.h"
#include "trace/render.h"

namespace aitax {
namespace {

using app::Application;
using app::FrameworkKind;
using app::HarnessMode;
using app::PipelineConfig;
using core::Stage;
using core::TaxReport;
using tensor::DType;

TaxReport
run(const char *model, DType dtype, FrameworkKind fw, HarnessMode mode,
    int runs = 30, std::uint64_t seed = 7, int threads = 4)
{
    soc::SocSystem sys(soc::makeSnapdragon845(), seed);
    PipelineConfig cfg;
    cfg.model = models::findModel(model);
    cfg.dtype = dtype;
    cfg.framework = fw;
    cfg.mode = mode;
    cfg.threads = threads;
    Application app(sys, cfg);
    TaxReport report;
    app.scheduleRuns(runs, report);
    sys.run();
    return report;
}

// --- Fig 3: benchmark vs app end-to-end gap -----------------------------

TEST(Fig3, AppsSlowerThanBenchmarksAcrossModels)
{
    for (const char *model :
         {"mobilenet_v1", "efficientnet_lite0", "inception_v3"}) {
        const auto bench = run(model, DType::Float32,
                               FrameworkKind::TfliteCpu,
                               HarnessMode::CliBenchmark, 15);
        const auto app = run(model, DType::Float32,
                             FrameworkKind::TfliteCpu,
                             HarnessMode::AndroidApp, 15);
        EXPECT_GT(app.endToEndMeanMs(), bench.endToEndMeanMs() * 1.1)
            << model;
    }
}

TEST(Fig3, InceptionV3AppGapTensOfMs)
{
    // Paper: app ~350 ms vs benchmark ~250 ms for Inception V3 fp32.
    const auto bench =
        run("inception_v3", DType::Float32, FrameworkKind::TfliteCpu,
            HarnessMode::CliBenchmark, 15);
    const auto app =
        run("inception_v3", DType::Float32, FrameworkKind::TfliteCpu,
            HarnessMode::AndroidApp, 15);
    EXPECT_NEAR(bench.endToEndMeanMs(), 250.0, 60.0);
    EXPECT_GT(app.endToEndMeanMs() - bench.endToEndMeanMs(), 20.0);
}

TEST(Fig3, BenchmarkAppSitsBetweenCliAndRealApp)
{
    const auto cli = run("mobilenet_v1", DType::UInt8,
                         FrameworkKind::TfliteCpu,
                         HarnessMode::CliBenchmark, 15);
    const auto bench_app = run("mobilenet_v1", DType::UInt8,
                               FrameworkKind::TfliteCpu,
                               HarnessMode::BenchmarkApp, 15);
    const auto app = run("mobilenet_v1", DType::UInt8,
                         FrameworkKind::TfliteCpu,
                         HarnessMode::AndroidApp, 15);
    EXPECT_LE(cli.endToEndMeanMs(), bench_app.endToEndMeanMs() * 1.1);
    EXPECT_LT(bench_app.endToEndMeanMs(), app.endToEndMeanMs());
}

// --- Fig 4: capture + pre-processing vs inference -----------------------

TEST(Fig4, QuantizedMobileNetTaxApproachesTwiceInference)
{
    // "Models such as quantized MobileNet v1 spent up to two times as
    // much time acquiring and processing data than performing
    // inference."
    const auto app = run("mobilenet_v1", DType::UInt8,
                         FrameworkKind::TfliteCpu,
                         HarnessMode::AndroidApp, 40);
    const double ratio = (app.stageMeanMs(Stage::DataCapture) +
                          app.stageMeanMs(Stage::PreProcessing)) /
                         app.stageMeanMs(Stage::Inference);
    EXPECT_GT(ratio, 1.0);
    EXPECT_LT(ratio, 3.0);
}

TEST(Fig4, InferenceDominatesOnlyForInception)
{
    const auto inception = run("inception_v3", DType::Float32,
                               FrameworkKind::TfliteCpu,
                               HarnessMode::AndroidApp, 15);
    EXPECT_GT(inception.stageMeanMs(Stage::Inference),
              inception.aiTaxMeanMs());

    const auto mobilenet = run("mobilenet_v1", DType::UInt8,
                               FrameworkKind::TfliteCpu,
                               HarnessMode::AndroidApp, 15);
    EXPECT_LT(mobilenet.stageMeanMs(Stage::Inference),
              mobilenet.aiTaxMeanMs());
}

TEST(Fig4, BenchmarkCaptureNegligibleForFloatNotInt)
{
    // Random real generation is nearly free under libc++; integer
    // generation is not (Section IV-A's stdlib trap).
    const auto f = run("mobilenet_v1", DType::Float32,
                       FrameworkKind::TfliteCpu,
                       HarnessMode::CliBenchmark, 15);
    const auto q = run("mobilenet_v1", DType::UInt8,
                       FrameworkKind::TfliteCpu,
                       HarnessMode::CliBenchmark, 15);
    EXPECT_LT(f.stageMeanMs(Stage::DataCapture), 1.0);
    EXPECT_GT(q.stageMeanMs(Stage::DataCapture),
              3.0 * f.stageMeanMs(Stage::DataCapture));
}

TEST(Fig4, AiTaxCanReachHalfOfEndToEnd)
{
    // Key claim #2 of the paper: the tax can consume ~50% of E2E time.
    const auto app = run("mobilenet_v1", DType::UInt8,
                         FrameworkKind::TfliteCpu,
                         HarnessMode::AndroidApp, 40);
    EXPECT_GT(app.aiTaxFraction(), 0.45);
}

// --- Fig 5: NNAPI INT8 fallback ------------------------------------------

TEST(Fig5, NnapiInt8EfficientNetDegradesSevenFold)
{
    const auto cpu1 =
        run("efficientnet_lite0", DType::UInt8, FrameworkKind::TfliteCpu,
            HarnessMode::CliBenchmark, 15, 7, /*threads=*/1);
    const auto nnapi =
        run("efficientnet_lite0", DType::UInt8,
            FrameworkKind::TfliteNnapi, HarnessMode::CliBenchmark, 15);
    const double slowdown = nnapi.stageMeanMs(Stage::Inference) /
                            cpu1.stageMeanMs(Stage::Inference);
    EXPECT_GT(slowdown, 4.0);
    EXPECT_LT(slowdown, 10.0);
}

TEST(Fig5, FloatEfficientNetDoesNotShowTheBug)
{
    // "Interestingly this does not occur in the floating-point model."
    const auto cpu = run("efficientnet_lite0", DType::Float32,
                         FrameworkKind::TfliteCpu,
                         HarnessMode::CliBenchmark, 15);
    const auto nnapi = run("efficientnet_lite0", DType::Float32,
                           FrameworkKind::TfliteNnapi,
                           HarnessMode::CliBenchmark, 15);
    EXPECT_LT(nnapi.stageMeanMs(Stage::Inference),
              cpu.stageMeanMs(Stage::Inference) * 1.5);
}

TEST(Fig5, HexagonDelegateBeatsCpuForInt8)
{
    const auto cpu = run("efficientnet_lite0", DType::UInt8,
                         FrameworkKind::TfliteCpu,
                         HarnessMode::CliBenchmark, 15);
    const auto hex = run("efficientnet_lite0", DType::UInt8,
                         FrameworkKind::TfliteHexagon,
                         HarnessMode::CliBenchmark, 15);
    EXPECT_LT(hex.stageMeanMs(Stage::Inference),
              cpu.stageMeanMs(Stage::Inference));
}

// --- Section IV-B: NNAPI-DSP vs CPU vs SNPE -------------------------------

TEST(FrameworkStudy, NnapiDspSlowerThanCpuExceptInceptionV4)
{
    struct Case
    {
        const char *model;
        bool nnapi_wins;
    };
    const Case cases[] = {
        {"mobilenet_v1", false},
        {"ssd_mobilenet_v2", false},
        {"inception_v3", false},
        {"inception_v4", true},
    };
    for (const auto &c : cases) {
        const auto cpu = run(c.model, DType::UInt8,
                             FrameworkKind::TfliteCpu,
                             HarnessMode::CliBenchmark, 10);
        const auto nnapi = run(c.model, DType::UInt8,
                               FrameworkKind::TfliteNnapi,
                               HarnessMode::CliBenchmark, 10);
        const bool nnapi_wins = nnapi.stageMeanMs(Stage::Inference) <
                                cpu.stageMeanMs(Stage::Inference);
        EXPECT_EQ(nnapi_wins, c.nnapi_wins) << c.model;
    }
}

TEST(FrameworkStudy, SnpeDspAlwaysBeatsCpu)
{
    for (const char *model :
         {"mobilenet_v1", "inception_v3", "inception_v4"}) {
        const auto cpu = run(model, DType::UInt8,
                             FrameworkKind::TfliteCpu,
                             HarnessMode::CliBenchmark, 10);
        const auto snpe = run(model, DType::UInt8,
                              FrameworkKind::SnpeDsp,
                              HarnessMode::CliBenchmark, 10);
        EXPECT_LT(snpe.stageMeanMs(Stage::Inference),
                  cpu.stageMeanMs(Stage::Inference))
            << model;
    }
}

TEST(FrameworkStudy, AdvisorRecommendsSnpeForQuantizedMobileNet)
{
    const auto cpu = run("mobilenet_v1", DType::UInt8,
                         FrameworkKind::TfliteCpu,
                         HarnessMode::CliBenchmark, 10);
    const auto nnapi = run("mobilenet_v1", DType::UInt8,
                           FrameworkKind::TfliteNnapi,
                           HarnessMode::CliBenchmark, 10);
    const auto snpe = run("mobilenet_v1", DType::UInt8,
                          FrameworkKind::SnpeDsp,
                          HarnessMode::CliBenchmark, 10);
    const auto choice = core::adviseFramework(
        {{"cpu", &cpu}, {"nnapi", &nnapi}, {"snpe", &snpe}});
    EXPECT_EQ(choice.framework, "snpe");
    EXPECT_GT(choice.speedupVsWorst, 1.0);
}

// --- Fig 8: offload amortization ------------------------------------------

TEST(Fig8, OffloadOverheadAmortizesOverConsecutiveInferences)
{
    soc::SocSystem sys(soc::makeSnapdragon845(), 7);
    PipelineConfig cfg;
    cfg.model = models::findModel("mobilenet_v1");
    cfg.dtype = DType::UInt8;
    cfg.framework = FrameworkKind::TfliteHexagon;
    cfg.mode = HarnessMode::CliBenchmark;
    Application app(sys, cfg);
    TaxReport report;
    app.scheduleRuns(50, report);
    sys.run();

    const auto series = core::offloadShareSeries(app.rpcLog());
    ASSERT_EQ(series.size(), 50u);
    // Cold start dominates the first call...
    EXPECT_GT(series[0], 0.4);
    // ...and amortizes away.
    EXPECT_LT(series[49], series[0] / 3.0);
    for (std::size_t i = 1; i < series.size(); ++i)
        EXPECT_LE(series[i], series[i - 1] + 1e-12);
}

// --- Fig 9 / 10: multi-tenancy --------------------------------------------

TaxReport
runWithBackground(FrameworkKind bg_framework, int bg_processes,
                  std::uint64_t seed = 7)
{
    soc::SocSystem sys(soc::makeSnapdragon845(), seed);
    PipelineConfig cfg;
    cfg.model = models::findModel("mobilenet_v1");
    cfg.dtype = DType::UInt8;
    cfg.framework = FrameworkKind::TfliteHexagon; // app uses the DSP
    cfg.mode = HarnessMode::AndroidApp;
    Application app(sys, cfg);

    std::vector<std::unique_ptr<app::BackgroundInferenceLoop>> loops;
    for (int i = 0; i < bg_processes; ++i) {
        app::BackgroundLoadConfig bg;
        bg.model = models::findModel("mobilenet_v1");
        bg.dtype = DType::UInt8;
        bg.framework = bg_framework;
        bg.processId = 100 + i;
        loops.push_back(
            std::make_unique<app::BackgroundInferenceLoop>(sys, bg));
        loops.back()->start(sim::secToNs(30.0));
    }

    TaxReport report;
    app.scheduleRuns(15, report, [&](sim::TimeNs) {
        for (auto &loop : loops)
            loop->stop();
    });
    sys.run();
    return report;
}

TEST(Fig9, DspContentionGrowsInferenceLinearly)
{
    const auto r0 = runWithBackground(FrameworkKind::TfliteHexagon, 0);
    const auto r2 = runWithBackground(FrameworkKind::TfliteHexagon, 2);
    const auto r4 = runWithBackground(FrameworkKind::TfliteHexagon, 4);
    // Inference stalls on the single DSP.
    EXPECT_GT(r2.stageMeanMs(Stage::Inference),
              r0.stageMeanMs(Stage::Inference) * 1.5);
    EXPECT_GT(r4.stageMeanMs(Stage::Inference),
              r2.stageMeanMs(Stage::Inference) * 1.2);
    // Pre-processing stays approximately constant (CPU unaffected).
    EXPECT_LT(r4.stageMeanMs(Stage::PreProcessing),
              r0.stageMeanMs(Stage::PreProcessing) * 1.5);
}

TEST(Fig10, CpuContentionGrowsPreProcessingNotInference)
{
    const auto r0 = runWithBackground(FrameworkKind::TfliteCpu, 0);
    const auto r4 = runWithBackground(FrameworkKind::TfliteCpu, 4);
    // Capture+pre-processing compete with background CPU inference.
    const double pre0 = r0.stageMeanMs(Stage::DataCapture) +
                        r0.stageMeanMs(Stage::PreProcessing);
    const double pre4 = r4.stageMeanMs(Stage::DataCapture) +
                        r4.stageMeanMs(Stage::PreProcessing);
    EXPECT_GT(pre4, pre0 * 1.15);
    // Inference stays approximately constant (DSP uncontended).
    EXPECT_LT(r4.stageMeanMs(Stage::Inference),
              r0.stageMeanMs(Stage::Inference) * 1.35);
}

TEST(Fig9Extension, DspPreprocessingInheritsDspContention)
{
    // With pre-processing offloaded to the DSP (the intro's proposal),
    // background DSP inferences now stall the *pre-processing* stage
    // too — the tax follows the placement.
    auto run_cfg = [&](int bg_processes) {
        soc::SocSystem sys(soc::makeSnapdragon845(), 7);
        PipelineConfig cfg;
        cfg.model = models::findModel("mobilenet_v1");
        cfg.dtype = DType::UInt8;
        cfg.framework = FrameworkKind::TfliteHexagon;
        cfg.mode = HarnessMode::AndroidApp;
        cfg.preprocessOnDsp = true;
        Application app(sys, cfg);
        std::vector<std::unique_ptr<app::BackgroundInferenceLoop>>
            loops;
        for (int i = 0; i < bg_processes; ++i) {
            app::BackgroundLoadConfig bg;
            bg.model = models::findModel("mobilenet_v1");
            bg.dtype = DType::UInt8;
            bg.framework = FrameworkKind::TfliteHexagon;
            bg.processId = 100 + i;
            loops.push_back(
                std::make_unique<app::BackgroundInferenceLoop>(sys,
                                                               bg));
            loops.back()->start(sim::secToNs(30.0));
        }
        TaxReport report;
        app.scheduleRuns(15, report, [&](sim::TimeNs) {
            for (auto &loop : loops)
                loop->stop();
        });
        sys.run();
        return report;
    };
    const auto quiet = run_cfg(0);
    const auto contended = run_cfg(4);
    EXPECT_GT(contended.stageMeanMs(Stage::PreProcessing),
              quiet.stageMeanMs(Stage::PreProcessing) * 3.0);
    EXPECT_GT(contended.stageMeanMs(Stage::Inference),
              quiet.stageMeanMs(Stage::Inference) * 2.0);
}

// --- Fig 11: run-to-run variability ----------------------------------------

TEST(Fig11, AppDistributionMuchWiderThanBenchmark)
{
    const auto bench = run("mobilenet_v1", DType::Float32,
                           FrameworkKind::TfliteCpu,
                           HarnessMode::CliBenchmark, 60);
    const auto app = run("mobilenet_v1", DType::Float32,
                         FrameworkKind::TfliteCpu,
                         HarnessMode::AndroidApp, 60);
    EXPECT_LT(bench.endToEnd().cv(), 0.05);
    EXPECT_GT(app.endToEnd().cv(), 2.0 * bench.endToEnd().cv());
    // Deviations up to tens of percent from the median (paper: ~30%).
    EXPECT_GT(app.endToEnd().maxDeviationFromMedianPct(), 10.0);
}

// --- Section III-D: probe effect --------------------------------------------

TEST(ProbeEffect, InstrumentationSlowsAcceleratedInferenceOnly)
{
    auto run_instr = [&](bool instrument, FrameworkKind fw,
                         DType dtype) {
        soc::SocSystem sys(soc::makeSnapdragon845(), 7);
        PipelineConfig cfg;
        cfg.model = models::findModel("mobilenet_v1");
        cfg.dtype = dtype;
        cfg.framework = fw;
        cfg.mode = HarnessMode::CliBenchmark;
        cfg.instrumentationEnabled = instrument;
        Application app(sys, cfg);
        TaxReport report;
        app.scheduleRuns(30, report);
        sys.run();
        return report.stageMeanMs(Stage::Inference);
    };

    const double dsp_off = run_instr(false, FrameworkKind::TfliteHexagon,
                                     DType::UInt8);
    const double dsp_on = run_instr(true, FrameworkKind::TfliteHexagon,
                                    DType::UInt8);
    const double ratio = dsp_on / dsp_off;
    EXPECT_GT(ratio, 1.02);
    EXPECT_LT(ratio, 1.09);

    const double cpu_off =
        run_instr(false, FrameworkKind::TfliteCpu, DType::UInt8);
    const double cpu_on =
        run_instr(true, FrameworkKind::TfliteCpu, DType::UInt8);
    EXPECT_NEAR(cpu_on / cpu_off, 1.0, 0.02);
}

// --- Table II: platform generations ----------------------------------------

TEST(TableII, NewerChipsetsAreFaster)
{
    double prev = 1e18;
    for (const auto &platform : soc::allPlatforms()) {
        soc::SocSystem sys(platform, 7);
        PipelineConfig cfg;
        cfg.model = models::findModel("mobilenet_v1");
        cfg.dtype = DType::UInt8;
        cfg.framework = FrameworkKind::SnpeDsp;
        cfg.mode = HarnessMode::CliBenchmark;
        Application app(sys, cfg);
        TaxReport report;
        app.scheduleRuns(10, report);
        sys.run();
        EXPECT_LT(report.stageMeanMs(Stage::Inference), prev)
            << platform.socName;
        prev = report.stageMeanMs(Stage::Inference);
    }
}

// --- Fig 6: profiler timeline ------------------------------------------------

TEST(Fig6, NnapiFallbackShowsSingleThreadedCpuAndMigrations)
{
    soc::SocSystem sys(soc::makeSnapdragon845(), 7);
    PipelineConfig cfg;
    cfg.model = models::findModel("efficientnet_lite0");
    cfg.dtype = DType::UInt8;
    cfg.framework = FrameworkKind::TfliteNnapi;
    cfg.mode = HarnessMode::BenchmarkApp; // UI interference present
    Application app(sys, cfg);
    TaxReport report;
    app.scheduleRuns(10, report);
    sys.run();

    // The DSP never runs the model...
    EXPECT_EQ(sys.dsp().jobsCompleted(), 0);
    // ...the CPU does, with scheduler migrations from UI interference.
    EXPECT_GT(sys.scheduler().migrations(), 0);
    // The render path produces a non-empty timeline.
    std::ostringstream os;
    trace::renderTimeline(os, sys.tracer(), 0, sys.simulator().now(),
                          60);
    EXPECT_NE(os.str().find("cpu4"), std::string::npos);
}

TEST(Fig6, HexagonRunShowsDspUtilization)
{
    soc::SocSystem sys(soc::makeSnapdragon845(), 7);
    PipelineConfig cfg;
    cfg.model = models::findModel("efficientnet_lite0");
    cfg.dtype = DType::UInt8;
    cfg.framework = FrameworkKind::TfliteHexagon;
    cfg.mode = HarnessMode::CliBenchmark;
    Application app(sys, cfg);
    TaxReport report;
    app.scheduleRuns(10, report);
    sys.run();
    EXPECT_EQ(sys.dsp().jobsCompleted(), 10);
    const trace::Tracer &tracer = sys.tracer();
    const trace::TrackId dsp = tracer.findTrack("Hexagon 685");
    ASSERT_TRUE(dsp.valid());
    EXPECT_FALSE(tracer.track(dsp).empty());
    // AXI counter saw traffic.
    const trace::CounterId axi = tracer.findCounter("axi_bytes");
    ASSERT_TRUE(axi.valid());
    EXPECT_FALSE(tracer.counterStore(axi).empty());
}

} // namespace
} // namespace aitax
