/**
 * @file
 * Property tests: invariants that must hold across the whole
 * configuration space (every model x format x framework x platform),
 * exercised with parameterized sweeps.
 */

#include <gtest/gtest.h>

#include <tuple>

#include "app/pipeline.h"
#include "core/analyzer.h"
#include "runtime/nnapi.h"
#include "runtime/plan.h"
#include "soc/chipsets.h"

namespace aitax {
namespace {

using app::FrameworkKind;
using app::HarnessMode;
using core::Stage;
using tensor::DType;

bool
comboValid(const models::ModelInfo &m, DType dtype, FrameworkKind fw)
{
    if (tensor::isQuantized(dtype) && !m.cpuInt8)
        return false;
    if (fw == FrameworkKind::TfliteNnapi && !m.supports(true, dtype))
        return false;
    if (fw == FrameworkKind::SnpeDsp &&
        m.task == models::Task::LanguageProcessing)
        return false; // SNPE has no transformer kernels
    return true;
}

core::TaxReport
runCombo(const models::ModelInfo &m, DType dtype, FrameworkKind fw,
         HarnessMode mode, int runs, std::uint64_t seed)
{
    soc::SocSystem sys(soc::makeSnapdragon845(), seed);
    app::PipelineConfig cfg;
    cfg.model = &m;
    cfg.dtype = dtype;
    cfg.framework = fw;
    cfg.mode = mode;
    app::Application application(sys, cfg);
    core::TaxReport report;
    application.scheduleRuns(runs, report);
    sys.run();
    return report;
}

// --- sweep: every model x format x framework ---------------------------

using ComboParam = std::tuple<int, DType, FrameworkKind>;

class PipelineSweep : public ::testing::TestWithParam<ComboParam>
{
  protected:
    const models::ModelInfo &
    model() const
    {
        return models::allModels()[static_cast<std::size_t>(
            std::get<0>(GetParam()))];
    }
    DType dtype() const { return std::get<1>(GetParam()); }
    FrameworkKind framework() const { return std::get<2>(GetParam()); }
};

TEST_P(PipelineSweep, StageLatenciesWellFormed)
{
    if (!comboValid(model(), dtype(), framework()))
        GTEST_SKIP();
    const auto r = runCombo(model(), dtype(), framework(),
                            HarnessMode::AndroidApp, 4, 11);
    ASSERT_EQ(r.runs(), 4u);
    // Inference always takes time; no stage may be negative; the
    // end-to-end mean must equal the sum of stage means.
    EXPECT_GT(r.stageMeanMs(Stage::Inference), 0.0);
    double sum = 0.0;
    for (Stage s : core::kAllStages) {
        EXPECT_GE(r.stage(s).min(), 0.0) << core::stageName(s);
        sum += r.stageMeanMs(s);
    }
    EXPECT_NEAR(sum, r.endToEndMeanMs(), 1e-6);
    // AI tax identity: tax = e2e - inference.
    EXPECT_NEAR(r.aiTaxMeanMs(),
                r.endToEndMeanMs() - r.stageMeanMs(Stage::Inference),
                1e-6);
    EXPECT_GE(r.aiTaxFraction(), 0.0);
    EXPECT_LT(r.aiTaxFraction(), 1.0);
}

TEST_P(PipelineSweep, DeterministicGivenSeed)
{
    if (!comboValid(model(), dtype(), framework()))
        GTEST_SKIP();
    const auto a = runCombo(model(), dtype(), framework(),
                            HarnessMode::CliBenchmark, 3, 5);
    const auto b = runCombo(model(), dtype(), framework(),
                            HarnessMode::CliBenchmark, 3, 5);
    EXPECT_DOUBLE_EQ(a.endToEndMeanMs(), b.endToEndMeanMs());
    for (Stage s : core::kAllStages)
        EXPECT_DOUBLE_EQ(a.stageMeanMs(s), b.stageMeanMs(s));
}

TEST_P(PipelineSweep, AppModeNeverFasterThanBenchmark)
{
    if (!comboValid(model(), dtype(), framework()))
        GTEST_SKIP();
    const auto bench = runCombo(model(), dtype(), framework(),
                                HarnessMode::CliBenchmark, 4, 7);
    const auto app = runCombo(model(), dtype(), framework(),
                              HarnessMode::AndroidApp, 4, 7);
    EXPECT_GT(app.endToEndMeanMs(), bench.endToEndMeanMs() * 0.98);
}

INSTANTIATE_TEST_SUITE_P(
    AllCombos, PipelineSweep,
    ::testing::Combine(::testing::Range(0, 11),
                       ::testing::Values(DType::Float32, DType::UInt8),
                       ::testing::Values(FrameworkKind::TfliteCpu,
                                         FrameworkKind::TfliteNnapi,
                                         FrameworkKind::SnpeDsp)),
    [](const auto &info) {
        const auto &m = models::allModels()[static_cast<std::size_t>(
            std::get<0>(info.param))];
        std::string name = m.id;
        name += "_";
        name += tensor::dtypeName(std::get<1>(info.param));
        name += "_";
        name += app::frameworkName(std::get<2>(info.param));
        for (auto &c : name)
            if (c == '-')
                c = '_';
        return name;
    });

// --- plan invariants ---------------------------------------------------

class PlanSweep : public ::testing::TestWithParam<std::tuple<int, DType>>
{
};

TEST_P(PlanSweep, PartitionInvariants)
{
    const auto &m = models::allModels()[static_cast<std::size_t>(
        std::get<0>(GetParam()))];
    const DType dtype = std::get<1>(GetParam());
    const auto g = models::buildGraph(m, dtype);
    runtime::nnapi::Compilation comp(g, dtype);
    const auto &plan = comp.plan();

    ASSERT_FALSE(plan.partitions.empty());
    double mac_share = 0.0;
    std::size_t ops = 0;
    for (std::size_t i = 0; i < plan.partitions.size(); ++i) {
        const auto &p = plan.partitions[i];
        EXPECT_NE(p.driver, nullptr);
        EXPECT_GT(p.opCount, 0u);
        EXPECT_GE(p.deviceOps, 0.0);
        EXPECT_GE(p.bytes, 0.0);
        EXPECT_GE(p.inputBytes, 0.0);
        EXPECT_GE(p.macShare, 0.0);
        EXPECT_LE(p.macShare, 1.0 + 1e-9);
        // Adjacent partitions must use different drivers (coalescing).
        if (i > 0) {
            EXPECT_NE(p.driver, plan.partitions[i - 1].driver);
        }
        mac_share += p.macShare;
        ops += p.opCount;
    }
    EXPECT_NEAR(mac_share, 1.0, 1e-9);
    EXPECT_EQ(ops, g.opCount());
    EXPECT_GE(plan.acceleratedMacShare(), 0.0);
    EXPECT_LE(plan.acceleratedMacShare(), 1.0 + 1e-9);
}

INSTANTIATE_TEST_SUITE_P(
    AllModels, PlanSweep,
    ::testing::Combine(::testing::Range(0, 11),
                       ::testing::Values(DType::Float32, DType::UInt8)),
    [](const auto &info) {
        const auto &m = models::allModels()[static_cast<std::size_t>(
            std::get<0>(info.param))];
        return m.id + "_" +
               std::string(tensor::dtypeName(std::get<1>(info.param)));
    });

// --- platform sweep ------------------------------------------------------

class PlatformSweep : public ::testing::TestWithParam<int>
{
};

TEST_P(PlatformSweep, EveryPlatformRunsEveryFramework)
{
    const auto platform = soc::allPlatforms()[static_cast<std::size_t>(
        GetParam())];
    for (FrameworkKind fw :
         {FrameworkKind::TfliteCpu, FrameworkKind::TfliteHexagon,
          FrameworkKind::SnpeDsp}) {
        soc::SocSystem sys(platform, 3);
        app::PipelineConfig cfg;
        cfg.model = models::findModel("mobilenet_v1");
        cfg.dtype = DType::UInt8;
        cfg.framework = fw;
        cfg.mode = HarnessMode::CliBenchmark;
        app::Application application(sys, cfg);
        core::TaxReport report;
        application.scheduleRuns(3, report);
        sys.run();
        EXPECT_GT(report.stageMeanMs(Stage::Inference), 0.0)
            << platform.socName << "/" << app::frameworkName(fw);
    }
}

INSTANTIATE_TEST_SUITE_P(TableII, PlatformSweep, ::testing::Range(0, 4));

// --- cross-cutting invariants ---------------------------------------------

TEST(Properties, OffloadShareSeriesBoundedAndMonotone)
{
    soc::SocSystem sys(soc::makeSnapdragon845(), 7);
    app::PipelineConfig cfg;
    cfg.model = models::findModel("mobilenet_v1");
    cfg.dtype = DType::UInt8;
    cfg.framework = FrameworkKind::TfliteHexagon;
    cfg.mode = HarnessMode::CliBenchmark;
    app::Application application(sys, cfg);
    core::TaxReport report;
    application.scheduleRuns(30, report);
    sys.run();
    const auto series = core::offloadShareSeries(application.rpcLog());
    for (std::size_t i = 0; i < series.size(); ++i) {
        EXPECT_GE(series[i], 0.0);
        EXPECT_LT(series[i], 1.0);
        if (i > 0) {
            EXPECT_LE(series[i], series[i - 1] + 1e-12);
        }
    }
}

TEST(Properties, BusyTimeNeverExceedsWallClockPerCore)
{
    soc::SocSystem sys(soc::makeSnapdragon845(), 7);
    app::PipelineConfig cfg;
    cfg.model = models::findModel("mobilenet_v1");
    cfg.dtype = DType::Float32;
    cfg.framework = FrameworkKind::TfliteCpu;
    cfg.mode = HarnessMode::AndroidApp;
    app::Application application(sys, cfg);
    core::TaxReport report;
    application.scheduleRuns(10, report);
    const sim::TimeNs end = sys.run();

    const trace::Tracer &tracer = sys.tracer();
    for (const trace::TrackId id : tracer.sortedNonEmptyTracks()) {
        const std::string &track = tracer.trackName(id);
        const trace::Tracer::TrackStore &ivs = tracer.track(id);
        sim::DurationNs busy = 0;
        sim::TimeNs last_end = 0;
        for (std::size_t i = 0; i < ivs.size(); ++i) {
            EXPECT_LE(ivs.begins[i], ivs.ends[i]) << track;
            // Intervals on one resource must not overlap.
            EXPECT_GE(ivs.begins[i], last_end) << track;
            last_end = ivs.ends[i];
            busy += ivs.ends[i] - ivs.begins[i];
        }
        EXPECT_LE(busy, end) << track;
    }
}

TEST(Properties, EnergyAccumulatesAndSplitsByDomain)
{
    auto run_energy = [&](FrameworkKind fw, int runs) {
        soc::SocSystem sys(soc::makeSnapdragon845(), 7);
        app::PipelineConfig cfg;
        cfg.model = models::findModel("mobilenet_v1");
        cfg.dtype = DType::UInt8;
        cfg.framework = fw;
        cfg.mode = HarnessMode::CliBenchmark;
        app::Application application(sys, cfg);
        core::TaxReport report;
        application.scheduleRuns(runs, report);
        sys.run();
        struct Out
        {
            double total, big, dsp;
        };
        return Out{sys.energy().totalMj(),
                   sys.energy().domainMj(soc::PowerDomain::BigCpu),
                   sys.energy().domainMj(soc::PowerDomain::Dsp)};
    };

    const auto cpu_small = run_energy(FrameworkKind::TfliteCpu, 5);
    const auto cpu_large = run_energy(FrameworkKind::TfliteCpu, 20);
    EXPECT_GT(cpu_small.total, 0.0);
    EXPECT_GT(cpu_large.total, cpu_small.total);
    EXPECT_DOUBLE_EQ(cpu_small.dsp, 0.0);

    const auto dsp = run_energy(FrameworkKind::SnpeDsp, 20);
    EXPECT_GT(dsp.dsp, 0.0);
    // Offloaded inference must be more energy-efficient than CPU
    // inference end to end (the paper's motivating premise).
    EXPECT_LT(dsp.total, cpu_large.total);
}

TEST(Properties, DspPreprocessingShrinksPreStage)
{
    auto run_pre = [&](bool on_dsp) {
        soc::SocSystem sys(soc::makeSnapdragon845(), 7);
        app::PipelineConfig cfg;
        cfg.model = models::findModel("mobilenet_v1");
        cfg.dtype = DType::UInt8;
        cfg.framework = FrameworkKind::TfliteCpu;
        cfg.mode = HarnessMode::AndroidApp;
        cfg.preprocessOnDsp = on_dsp;
        app::Application application(sys, cfg);
        core::TaxReport report;
        application.scheduleRuns(20, report);
        sys.run();
        return report;
    };
    const auto cpu = run_pre(false);
    const auto dsp = run_pre(true);
    EXPECT_LT(dsp.stageMeanMs(Stage::PreProcessing),
              cpu.stageMeanMs(Stage::PreProcessing) / 5.0);
    EXPECT_LT(dsp.endToEndMeanMs(), cpu.endToEndMeanMs());
    // Inference unchanged: the DSP work happens in the pre stage.
    EXPECT_NEAR(dsp.stageMeanMs(Stage::Inference),
                cpu.stageMeanMs(Stage::Inference),
                cpu.stageMeanMs(Stage::Inference) * 0.1);
}

TEST(Properties, SustainedSpeedPreferenceAvoidsDspForQuantized)
{
    const auto g =
        models::buildGraph("mobilenet_v1", DType::UInt8);
    runtime::nnapi::Compilation fast(
        g, DType::UInt8,
        runtime::nnapi::ExecutionPreference::FastSingleAnswer);
    runtime::nnapi::Compilation sustained(
        g, DType::UInt8,
        runtime::nnapi::ExecutionPreference::SustainedSpeed);
    // FAST_SINGLE_ANSWER picks the DSP; SUSTAINED_SPEED prefers the
    // GPU driver first (thermally safer) — but the GPU driver cannot
    // run quantized ops, so the DSP still executes the model.
    EXPECT_TRUE(fast.plan().usesAccelerator());
    EXPECT_TRUE(sustained.plan().usesAccelerator());
}

TEST(Properties, ThermalThrottlingSlowsSustainedInference)
{
    auto run_thermal = [&](bool enabled) {
        auto platform = soc::makeSnapdragon845();
        platform.thermal.enabled = enabled;
        platform.thermal.heatPerBusySec = 0.3;
        platform.thermal.coolingTauSec = 20.0;
        platform.thermal.throttleThreshold = 1.0;
        soc::SocSystem sys(platform, 7);
        app::PipelineConfig cfg;
        cfg.model = models::findModel("inception_v3");
        cfg.dtype = DType::Float32;
        cfg.framework = FrameworkKind::TfliteCpu;
        cfg.mode = HarnessMode::CliBenchmark;
        app::Application application(sys, cfg);
        core::TaxReport report;
        application.scheduleRuns(25, report);
        sys.run();
        return report.stageMeanMs(Stage::Inference);
    };
    EXPECT_GT(run_thermal(true), run_thermal(false) * 1.1);
}

} // namespace
} // namespace aitax
