/**
 * @file
 * Metamorphic invariant tier: the paper-derived relations of
 * src/verify/invariants.h checked across all four Table II chipsets
 * and ten of the eleven Table I models, plus direct unit coverage of
 * each checker (including that they *fail* on doctored inputs).
 */

#include <gtest/gtest.h>

#include <sstream>
#include <tuple>

#include "soc/chipsets.h"
#include "trace/chrome_trace.h"
#include "verify/invariants.h"

namespace aitax::verify {
namespace {

using app::FrameworkKind;
using app::HarnessMode;
using tensor::DType;

const char *const kModels[] = {
    "mobilenet_v1", "squeezenet",  "efficientnet_lite0", "alexnet",
    "inception_v3", "inception_v4", "deeplab_v3", "ssd_mobilenet_v2",
    "posenet",      "mobile_bert",
};

/**
 * Deterministically choose a valid framework/dtype/mode for a
 * (model, chipset) pair, rotating so the sweep exercises every path.
 */
Scenario
sweepScenario(int model_idx, int chipset_idx)
{
    static const std::pair<FrameworkKind, DType> kPaths[] = {
        {FrameworkKind::TfliteCpu, DType::Float32},
        {FrameworkKind::TfliteHexagon, DType::UInt8},
        {FrameworkKind::SnpeDsp, DType::UInt8},
        {FrameworkKind::TfliteGpu, DType::Float32},
        {FrameworkKind::TfliteNnapi, DType::Float32},
    };
    static const HarnessMode kModes[] = {
        HarnessMode::CliBenchmark,
        HarnessMode::BenchmarkApp,
        HarnessMode::AndroidApp,
    };

    Scenario s;
    s.modelId = kModels[model_idx];
    s.socName = soc::allPlatforms()[static_cast<std::size_t>(chipset_idx)]
                    .socName;
    s.mode = kModes[(model_idx + chipset_idx) % 3];
    s.runs = 5;
    s.seed = 1000 + static_cast<std::uint64_t>(model_idx * 10 +
                                               chipset_idx);
    for (int probe = 0; probe < 5; ++probe) {
        const auto &[fw, dtype] =
            kPaths[(model_idx + chipset_idx + probe) % 5];
        s.framework = fw;
        s.dtype = dtype;
        if (scenarioValid(s))
            return s;
    }
    // Every model supports the CPU fp32 path.
    s.framework = FrameworkKind::TfliteCpu;
    s.dtype = DType::Float32;
    EXPECT_TRUE(scenarioValid(s));
    return s;
}

class InvariantSweep
    : public ::testing::TestWithParam<std::tuple<int, int>>
{
};

TEST_P(InvariantSweep, AllInvariantsHold)
{
    const auto [model_idx, chipset_idx] = GetParam();
    const Scenario s = sweepScenario(model_idx, chipset_idx);
    const InvariantReport report = verifyScenario(s);
    EXPECT_GE(report.results().size(), 5u);
    if (!report.allPassed()) {
        std::ostringstream os;
        report.render(os);
        FAIL() << s.describe() << "\n" << os.str();
    }
}

INSTANTIATE_TEST_SUITE_P(
    ModelsByChipsets, InvariantSweep,
    ::testing::Combine(::testing::Range(0, 10), ::testing::Range(0, 4)),
    [](const auto &info) {
        const int model_idx = std::get<0>(info.param);
        const int chipset_idx = std::get<1>(info.param);
        std::string soc = soc::allPlatforms()[static_cast<std::size_t>(
                              chipset_idx)]
                              .socName;
        std::string digits;
        for (char c : soc)
            if (c >= '0' && c <= '9')
                digits += c;
        return std::string(kModels[model_idx]) + "_sd" + digits;
    });

// --- background-load invariant exercised with real contention ----------

TEST(Invariants, BackgroundDspLoadSlowsDspPipeline)
{
    Scenario quiet;
    quiet.modelId = "mobilenet_v1";
    quiet.dtype = DType::UInt8;
    quiet.framework = FrameworkKind::TfliteHexagon;
    quiet.mode = HarnessMode::AndroidApp;
    quiet.runs = 8;
    quiet.seed = 21;

    Scenario loaded = quiet;
    loaded.dspLoadProcesses = 2;

    const auto base = runScenario(quiet);
    const auto contended = runScenario(loaded);
    EXPECT_GT(contended.backgroundInferences, 0);
    const auto check =
        checkBackgroundMonotonic(base.report, contended.report);
    EXPECT_TRUE(check.passed) << check.detail;
    // The contention is not marginal: the DSP stalls the pipeline.
    EXPECT_GT(contended.report.endToEndMeanMs(),
              base.report.endToEndMeanMs());
}

TEST(Invariants, BackgroundCheckRejectsFabricatedSpeedup)
{
    core::StageLatencies fast;
    fast[core::Stage::Inference] = sim::msToNs(5.0);
    core::StageLatencies slow;
    slow[core::Stage::Inference] = sim::msToNs(10.0);

    core::TaxReport unloaded;
    unloaded.add(slow);
    core::TaxReport loaded;
    loaded.add(fast);
    // "Adding load halved the latency" must be flagged.
    EXPECT_FALSE(checkBackgroundMonotonic(unloaded, loaded).passed);
    EXPECT_TRUE(checkBackgroundMonotonic(loaded, unloaded).passed);
}

// --- interference suppression ------------------------------------------

TEST(Invariants, SuppressingInterferenceNeverSlower)
{
    auto run_mode = [&](bool suppress) {
        soc::SocSystem sys(soc::makeSnapdragon845(), 17);
        app::PipelineConfig cfg;
        cfg.model = models::findModel("mobilenet_v1");
        cfg.dtype = DType::Float32;
        cfg.framework = FrameworkKind::TfliteCpu;
        cfg.mode = HarnessMode::AndroidApp;
        cfg.suppressInterference = suppress;
        app::Application application(sys, cfg);
        core::TaxReport report;
        application.scheduleRuns(10, report);
        sys.run();
        return report;
    };
    const auto noisy = run_mode(false);
    const auto quiet = run_mode(true);
    const auto check = checkInterferenceSuppression(noisy, quiet);
    EXPECT_TRUE(check.passed) << check.detail;
}

// --- thermal monotonicity ----------------------------------------------

TEST(Invariants, ThermalMonotonicOnEveryChipset)
{
    for (const auto &platform : soc::allPlatforms()) {
        const auto check = checkThermalMonotonic(platform);
        EXPECT_TRUE(check.passed)
            << platform.socName << ": " << check.detail;
    }
}

// --- FastRPC linearity --------------------------------------------------

TEST(Invariants, FastRpcWarmOverheadIsStationary)
{
    Scenario s;
    s.modelId = "mobilenet_v1";
    s.dtype = DType::UInt8;
    s.framework = FrameworkKind::SnpeDsp;
    s.mode = HarnessMode::CliBenchmark;
    s.runs = 24;
    s.seed = 5;
    const auto result = runScenario(s);
    ASSERT_GE(result.rpcLog.size(), 6u);
    const auto check = checkFastRpcLinearity(result.rpcLog);
    EXPECT_TRUE(check.passed) << check.detail;
    // Only the first call pays the session open (Fig 8 cold start).
    EXPECT_GT(result.rpcLog.front().sessionOpenNs, 0);
}

TEST(Invariants, FastRpcCheckRejectsDoctoredLog)
{
    Scenario s;
    s.modelId = "mobilenet_v1";
    s.dtype = DType::UInt8;
    s.framework = FrameworkKind::SnpeDsp;
    s.mode = HarnessMode::CliBenchmark;
    s.runs = 12;
    s.seed = 5;
    auto log = runScenario(s).rpcLog;
    ASSERT_GE(log.size(), 6u);
    // Grossly inflate the tail: growth is now super-linear.
    for (std::size_t i = log.size() / 2; i < log.size(); ++i)
        log[i].queueWaitNs += sim::msToNs(500.0);
    EXPECT_FALSE(checkFastRpcLinearity(log).passed);
    // A warm call re-paying the session open is also flagged.
    auto reopened = runScenario(s).rpcLog;
    reopened.back().sessionOpenNs = sim::msToNs(15.0);
    EXPECT_FALSE(checkFastRpcLinearity(reopened).passed);
}

// --- trace determinism checker -----------------------------------------

TEST(Invariants, TraceCheckerReportsFirstDivergence)
{
    EXPECT_TRUE(checkTraceDeterminism("abcdef", "abcdef").passed);
    const auto diff = checkTraceDeterminism("abcdef", "abcXef");
    EXPECT_FALSE(diff.passed);
    EXPECT_NE(diff.detail.find("byte 3"), std::string::npos)
        << diff.detail;
}

TEST(Invariants, TraceCheckerSeesOneNanosecond)
{
    // Two traces that differ only in one interval's begin, 10 s against
    // 10 s + 1 ns, with the same duration. I3 and the differential
    // compare serialized traces, so the serialized bytes must differ.
    const auto traceWith = [](sim::TimeNs begin) {
        trace::Tracer t;
        const trace::TrackId cpu = t.internTrack("cpu0");
        const trace::LabelId job = t.internLabel("job");
        t.recordInterval(cpu, job, 0, 1'000);
        t.recordInterval(cpu, job, begin, begin + 1'000);
        t.recordEvent(t.internEventKind("migration"), job, 2'000);
        return trace::chromeTraceString(t);
    };
    const sim::TimeNs tenSeconds = 10'000'000'000;
    const std::string a = traceWith(tenSeconds);
    const std::string b = traceWith(tenSeconds + 1);
    EXPECT_NE(a, b);
    EXPECT_FALSE(checkTraceDeterminism(a, b).passed);
}

// --- stage sanity on a hand-built report --------------------------------

TEST(Invariants, StageSanityCatchesBrokenAccounting)
{
    core::StageLatencies run;
    run[core::Stage::DataCapture] = sim::msToNs(1.0);
    run[core::Stage::Inference] = sim::msToNs(4.0);
    core::TaxReport good;
    good.add(run);
    EXPECT_TRUE(checkStageSanity(good).passed);
    EXPECT_TRUE(checkTaxFraction(good).passed);

    core::TaxReport empty;
    EXPECT_FALSE(checkStageSanity(empty).passed);

    // All-inference runs have zero tax — an accounting bug in any
    // harness mode (even benchmarks pay capture/prep time).
    core::StageLatencies inference_only;
    inference_only[core::Stage::Inference] = sim::msToNs(4.0);
    core::TaxReport no_tax;
    no_tax.add(inference_only);
    EXPECT_FALSE(checkTaxFraction(no_tax).passed);
}

// --- fault-era checkers on hand-built witnesses -------------------------

TEST(Invariants, RpcBreakdownSanityRejectsDoctoredCalls)
{
    Scenario s;
    s.modelId = "mobilenet_v1";
    s.dtype = DType::UInt8;
    s.framework = FrameworkKind::SnpeDsp;
    s.mode = HarnessMode::CliBenchmark;
    s.runs = 6;
    s.seed = 17;
    const auto log = runScenario(s).rpcLog;
    ASSERT_FALSE(log.empty());
    EXPECT_TRUE(checkRpcBreakdownSanity(log).passed);

    // The misattribution bug's signature: a negative queue wait.
    auto negative = log;
    negative[0].queueWaitNs = -sim::usToNs(150.0);
    const auto neg = checkRpcBreakdownSanity(negative);
    EXPECT_FALSE(neg.passed);
    EXPECT_NE(neg.detail.find("queueWaitNs"), std::string::npos)
        << neg.detail;

    // Retry overhead can only appear alongside a retry count.
    auto phantom = log;
    phantom.back().retryNs = sim::msToNs(1.0);
    phantom.back().retries = 0;
    EXPECT_FALSE(checkRpcBreakdownSanity(phantom).passed);

    auto bad_count = log;
    bad_count[0].retries = -1;
    EXPECT_FALSE(checkRpcBreakdownSanity(bad_count).passed);
}

TEST(Invariants, FrameCausalityRejectsTimeTravel)
{
    std::vector<app::FrameConsume> ok = {
        {0, sim::msToNs(5.0), sim::msToNs(5.0)},
        {1, sim::msToNs(13.0), sim::msToNs(14.0)},
    };
    EXPECT_TRUE(checkFrameCausality(ok).passed);
    EXPECT_TRUE(checkFrameCausality({}).passed);

    // Frame consumed before the sensor produced it.
    std::vector<app::FrameConsume> early = ok;
    early[0].consumedAt = early[0].readyAt - 1;
    EXPECT_FALSE(checkFrameCausality(early).passed);

    // Frame indices must move strictly forward.
    std::vector<app::FrameConsume> repeat = ok;
    repeat[1].frame = 0;
    EXPECT_FALSE(checkFrameCausality(repeat).passed);
}

TEST(Invariants, FallbackMonotonicRejectsClimbing)
{
    faults::FaultStats down;
    down.fallbacks = {{faults::ChainLink::Dsp, faults::ChainLink::Gpu, 0},
                      {faults::ChainLink::Gpu, faults::ChainLink::Cpu, 1}};
    EXPECT_TRUE(checkFallbackMonotonic(down).passed);

    faults::FaultStats up;
    up.fallbacks = {{faults::ChainLink::Gpu, faults::ChainLink::Dsp, 0}};
    const auto r = checkFallbackMonotonic(up);
    EXPECT_FALSE(r.passed);
    EXPECT_NE(r.detail.find("climbs"), std::string::npos) << r.detail;
}

TEST(Invariants, DegradedAccountingChecksBothArms)
{
    core::StageLatencies run;
    run[core::Stage::DataCapture] = sim::msToNs(1.0);
    run[core::Stage::Inference] = sim::msToNs(4.0);

    // Unfaulted: any degraded sample is a leak.
    core::TaxReport clean;
    clean.add(run);
    EXPECT_TRUE(checkDegradedAccounting(clean, false).passed);
    core::TaxReport leaking;
    leaking.add(run);
    leaking.addDegraded(0.5);
    EXPECT_FALSE(checkDegradedAccounting(leaking, false).passed);

    // Faulted: exactly one sample per run, bounded by that run's wall.
    core::TaxReport faulted;
    faulted.add(run);
    faulted.addDegraded(2.0);
    EXPECT_TRUE(checkDegradedAccounting(faulted, true).passed);

    core::TaxReport missing;
    missing.add(run);
    EXPECT_FALSE(checkDegradedAccounting(missing, true).passed);

    core::TaxReport oversized;
    oversized.add(run);
    oversized.addDegraded(50.0); // exceeds the 5 ms end-to-end wall
    EXPECT_FALSE(checkDegradedAccounting(oversized, true).passed);
}

} // namespace
} // namespace aitax::verify
