/**
 * @file
 * Sweep-engine tests: thread-pool semantics and balancing, the shared
 * model-graph and inference-engine caches and the platform table, and
 * the determinism contract — the golden suite and a fuzz batch must be
 * byte-identical at --jobs 1 and --jobs 8.
 */

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <cstddef>
#include <iterator>
#include <memory>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "app/engine.h"
#include "app/pipeline.h"
#include "graph/graph.h"
#include "models/zoo.h"
#include "soc/chipsets.h"
#include "soc/system.h"
#include "sweep/sweep_runner.h"
#include "verify/golden.h"
#include "verify/scenario.h"

namespace {

using namespace aitax;

// --- SweepRunner -----------------------------------------------------

TEST(SweepRunner, MapPreservesSubmissionOrder)
{
    sweep::SweepRunner runner(8);
    const auto out =
        runner.map<std::size_t>(257, [](std::size_t i) { return i * i; });
    ASSERT_EQ(out.size(), 257u);
    for (std::size_t i = 0; i < out.size(); ++i)
        EXPECT_EQ(out[i], i * i);
}

TEST(SweepRunner, ForEachVisitsEveryIndexExactlyOnce)
{
    sweep::SweepRunner runner(8);
    std::vector<std::atomic<int>> hits(1024);
    runner.forEach(hits.size(), [&](std::size_t i) { ++hits[i]; });
    for (std::size_t i = 0; i < hits.size(); ++i)
        EXPECT_EQ(hits[i].load(), 1) << "index " << i;
}

TEST(SweepRunner, FirstExceptionPropagatesToCaller)
{
    sweep::SweepRunner runner(4);
    EXPECT_THROW(runner.forEach(100,
                                [](std::size_t i) {
                                    if (i == 37)
                                        throw std::runtime_error("boom");
                                }),
                 std::runtime_error);
}

TEST(SweepRunner, SingleJobRunsInlineOnCallingThread)
{
    sweep::SweepRunner runner(1);
    const auto caller = std::this_thread::get_id();
    runner.forEach(4, [&](std::size_t) {
        EXPECT_EQ(std::this_thread::get_id(), caller);
    });
}

TEST(SweepRunner, MoreJobsThanWorkIsFine)
{
    sweep::SweepRunner runner(16);
    const auto out =
        runner.map<int>(3, [](std::size_t i) { return static_cast<int>(i); });
    EXPECT_EQ(out, (std::vector<int>{0, 1, 2}));
}

TEST(SweepRunner, IdleWorkerDrainsTheQueue)
{
    // Index 0 holds its worker until every other index has run, so the
    // other worker must take all 63. A static split of the indices
    // between the two workers would strand some of them behind index 0
    // until the wait gives up.
    sweep::SweepRunner runner(2);
    std::atomic<int> others{0};
    int seen = -1;
    runner.forEach(64, [&](std::size_t i) {
        if (i != 0) {
            ++others;
            return;
        }
        const auto deadline =
            std::chrono::steady_clock::now() + std::chrono::seconds(10);
        while (others.load() < 63 &&
               std::chrono::steady_clock::now() < deadline)
            std::this_thread::sleep_for(std::chrono::milliseconds(1));
        seen = others.load();
    });
    EXPECT_EQ(seen, 63);
}

TEST(SweepRunner, JobsFlagMustBeAWholeNumber)
{
    char prog[] = "harness";
    char flag[] = "--jobs";
    char three[] = "3";
    char other[] = "--other";
    char *argv[] = {prog, flag, three, other, nullptr};
    int argc = 4;
    EXPECT_EQ(sweep::consumeJobsFlag(argc, argv), 3);
    ASSERT_EQ(argc, 2);
    EXPECT_STREQ(argv[1], "--other");
    EXPECT_EQ(argv[2], nullptr);

    // A malformed or missing value is a usage error (exit 2), not the
    // prefix std::atoi would read ("2x" -> 2) or all cores ("abc").
    for (const char *bad : {"2x", "abc", ""}) {
        std::string value = bad;
        char *args[] = {prog, flag, value.data(), nullptr};
        int n = 3;
        EXPECT_EXIT(sweep::consumeJobsFlag(n, args),
                    testing::ExitedWithCode(2), "--jobs")
            << bad;
    }
    char *missing[] = {prog, flag, nullptr};
    int n = 2;
    EXPECT_EXIT(sweep::consumeJobsFlag(n, missing),
                testing::ExitedWithCode(2), "--jobs");
}

TEST(SweepRunner, EffectiveJobsResolution)
{
    EXPECT_EQ(sweep::effectiveJobs(3), 3);
    EXPECT_EQ(sweep::effectiveJobs(1), 1);
    EXPECT_GE(sweep::effectiveJobs(0), 1);
    EXPECT_GE(sweep::effectiveJobs(-5), 1);
}

// --- shared model-graph cache ----------------------------------------

TEST(GraphCache, PointerIdenticalAcrossThreads)
{
    constexpr int kThreads = 8;
    std::vector<std::shared_ptr<const graph::Graph>> seen(kThreads);
    std::vector<std::thread> threads;
    threads.reserve(kThreads);
    for (int t = 0; t < kThreads; ++t)
        threads.emplace_back([&seen, t] {
            seen[static_cast<std::size_t>(t)] = models::cachedGraph(
                "inception_v3", tensor::DType::Float32);
        });
    for (auto &th : threads)
        th.join();
    ASSERT_NE(seen[0], nullptr);
    for (int t = 1; t < kThreads; ++t)
        EXPECT_EQ(seen[static_cast<std::size_t>(t)].get(), seen[0].get());
}

TEST(GraphCache, DistinctCellsPerModelAndDtype)
{
    const auto a =
        models::cachedGraph("mobilenet_v1", tensor::DType::Float32);
    const auto b =
        models::cachedGraph("mobilenet_v1", tensor::DType::UInt8);
    const auto c =
        models::cachedGraph("squeezenet", tensor::DType::Float32);
    EXPECT_NE(a.get(), b.get());
    EXPECT_NE(a.get(), c.get());
    EXPECT_EQ(
        a.get(),
        models::cachedGraph("mobilenet_v1", tensor::DType::Float32).get());
}

TEST(GraphCache, MatchesUncachedBuild)
{
    const auto cached =
        models::cachedGraph("mobilenet_v1", tensor::DType::Float32);
    const auto built =
        models::buildGraph("mobilenet_v1", tensor::DType::Float32);
    EXPECT_EQ(cached->opCount(), built.opCount());
}

// --- shared engine cache and platform table ----------------------------

TEST(EngineCache, PointerIdenticalAcrossThreads)
{
    constexpr int kThreads = 8;
    const auto *model = models::findModel("inception_v3");
    std::vector<const app::InferenceEngine *> seen(kThreads, nullptr);
    std::vector<std::thread> threads;
    threads.reserve(kThreads);
    for (int t = 0; t < kThreads; ++t)
        threads.emplace_back([&seen, model, t] {
            seen[static_cast<std::size_t>(t)] = &app::cachedEngine(
                *model, tensor::DType::UInt8,
                app::FrameworkKind::TfliteHexagon, 4);
        });
    for (auto &th : threads)
        th.join();
    ASSERT_NE(seen[0], nullptr);
    for (int t = 1; t < kThreads; ++t)
        EXPECT_EQ(seen[static_cast<std::size_t>(t)], seen[0]);
}

TEST(EngineCache, DistinctPerKeyField)
{
    const auto &mobilenet = *models::findModel("mobilenet_v1");
    const auto &squeezenet = *models::findModel("squeezenet");
    const auto f32 = tensor::DType::Float32;
    const auto cpu = app::FrameworkKind::TfliteCpu;
    const app::InferenceEngine *base =
        &app::cachedEngine(mobilenet, f32, cpu, 4);
    EXPECT_EQ(base, &app::cachedEngine(mobilenet, f32, cpu, 4));
    EXPECT_NE(base, &app::cachedEngine(squeezenet, f32, cpu, 4));
    EXPECT_NE(base, &app::cachedEngine(mobilenet, tensor::DType::UInt8,
                                       cpu, 4));
    EXPECT_NE(base, &app::cachedEngine(mobilenet, f32,
                                       app::FrameworkKind::TfliteGpu, 4));
    EXPECT_NE(base, &app::cachedEngine(mobilenet, f32, cpu, 2));
    EXPECT_EQ(base->kind(), cpu);
}

TEST(EngineCache, ApplicationUsesCachedEngine)
{
    soc::SocSystem sys(soc::platformByName("Snapdragon 845"), 7);
    app::PipelineConfig cfg;
    cfg.model = models::findModel("mobilenet_v1");
    cfg.dtype = tensor::DType::UInt8;
    cfg.framework = app::FrameworkKind::SnpeDsp;
    cfg.threads = 2;
    const app::Application application(sys, cfg);
    EXPECT_EQ(&application.engine(),
              &app::cachedEngine(*cfg.model, cfg.dtype, cfg.framework,
                                 cfg.threads));
}

TEST(Platforms, OneTablePerProcess)
{
    const auto &table = soc::allPlatforms();
    EXPECT_EQ(&table, &soc::allPlatforms());
    const char *kOrder[] = {"Snapdragon 835", "Snapdragon 845",
                            "Snapdragon 855", "Snapdragon 865"};
    ASSERT_EQ(table.size(), std::size(kOrder));
    for (std::size_t i = 0; i < table.size(); ++i) {
        EXPECT_EQ(table[i].socName, kOrder[i]);
        EXPECT_EQ(&soc::platformByName(kOrder[i]), &table[i]);
        EXPECT_EQ(soc::findPlatform(kOrder[i]), &table[i]);
    }
    EXPECT_EQ(soc::findPlatform("Snapdragon 999"), nullptr);
}

// --- determinism contract --------------------------------------------
// Parallelism is across simulations, never inside one: any --jobs
// count must reproduce the serial output byte for byte.

std::vector<std::string>
goldenJsonAtJobs(int jobs)
{
    const auto &scenarios = verify::goldenScenarios();
    sweep::SweepRunner runner(jobs);
    return runner.map<std::string>(
        scenarios.size(), [&](std::size_t i) {
            const auto &s = scenarios[i];
            return verify::toJson(
                verify::snapshot(s, verify::runScenario(s)));
        });
}

TEST(SweepDeterminism, GoldenSuiteByteIdenticalAcrossJobCounts)
{
    const auto serial = goldenJsonAtJobs(1);
    const auto parallel = goldenJsonAtJobs(8);
    ASSERT_EQ(serial.size(), parallel.size());
    for (std::size_t i = 0; i < serial.size(); ++i)
        EXPECT_EQ(serial[i], parallel[i])
            << verify::goldenScenarios()[i].label();
}

std::vector<std::string>
fuzzTracesAtJobs(int jobs, int count)
{
    sweep::SweepRunner runner(jobs);
    return runner.map<std::string>(
        static_cast<std::size_t>(count), [&](std::size_t i) {
            const auto s =
                verify::fuzzScenario(20260807, static_cast<int>(i));
            return verify::runScenario(s).chromeTraceJson;
        });
}

TEST(SweepDeterminism, FuzzBatchTracesByteIdenticalAcrossJobCounts)
{
    const auto serial = fuzzTracesAtJobs(1, 32);
    const auto parallel = fuzzTracesAtJobs(8, 32);
    ASSERT_EQ(serial.size(), parallel.size());
    for (std::size_t i = 0; i < serial.size(); ++i)
        EXPECT_EQ(serial[i], parallel[i]) << "fuzz index " << i;
}

} // namespace
