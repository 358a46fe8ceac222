/**
 * @file
 * Unit tests for the runtime layer: partitioning, plan execution and
 * the TFLite / NNAPI / SNPE front-ends.
 */

#include <gtest/gtest.h>

#include <memory>

#include "models/zoo.h"
#include "runtime/execute.h"
#include "runtime/nnapi.h"
#include "runtime/plan.h"
#include "runtime/snpe.h"
#include "runtime/tflite.h"
#include "soc/chipsets.h"
#include "soc/system.h"

namespace aitax::runtime {
namespace {

using tensor::DType;

// --- plan building -----------------------------------------------------

TEST(Plan, CpuOnlyIsSinglePartition)
{
    const auto g = models::buildGraph("mobilenet_v1", DType::Float32);
    const auto plan =
        buildPlan(g, DType::Float32, {}, drivers::tfliteCpuDriver());
    ASSERT_EQ(plan.partitions.size(), 1u);
    EXPECT_EQ(plan.partitions[0].opCount, g.opCount());
    EXPECT_EQ(plan.transitions(), 0u);
    EXPECT_FALSE(plan.usesAccelerator());
    EXPECT_DOUBLE_EQ(plan.acceleratedMacShare(), 0.0);
}

TEST(Plan, MacShareSumsToOne)
{
    const auto g = models::buildGraph("inception_v3", DType::Float32);
    const auto plan = buildPlan(g, DType::Float32,
                                {&drivers::nnapiVendorGpuDriver()},
                                drivers::nnapiCpuReferenceDriver());
    double total = 0.0;
    for (const auto &p : plan.partitions)
        total += p.macShare;
    EXPECT_NEAR(total, 1.0, 1e-9);
}

TEST(Plan, InceptionSplitsRoughlyHalfOnNnapiGpu)
{
    // The paper: Inception "runs around half of its inference on the
    // CPU" under NNAPI because of unsupported operator variants.
    const auto g = models::buildGraph("inception_v3", DType::Float32);
    const auto plan = buildPlan(g, DType::Float32,
                                {&drivers::nnapiVendorGpuDriver()},
                                drivers::nnapiCpuReferenceDriver());
    EXPECT_GT(plan.partitions.size(), 4u);
    const double accel = plan.acceleratedMacShare();
    EXPECT_GT(accel, 0.3);
    EXPECT_LT(accel, 0.85);
}

TEST(Plan, FullySupportedModelFullyAccelerated)
{
    const auto g = models::buildGraph("mobilenet_v1", DType::UInt8);
    const auto plan = buildPlan(g, DType::UInt8,
                                {&drivers::nnapiVendorDspDriver()},
                                drivers::nnapiCpuReferenceDriver());
    EXPECT_NEAR(plan.acceleratedMacShare(), 1.0, 1e-9);
    EXPECT_EQ(plan.partitions.size(), 1u);
}

TEST(Plan, DeviceOpsScaleInverseWithEfficiency)
{
    const auto g = models::buildGraph("mobilenet_v1", DType::UInt8);
    const auto &op = g.ops()[1]; // the stem conv
    const double snpe =
        deviceOpsFor(op, drivers::snpeDspDriver(), DType::UInt8);
    const double nnapi =
        deviceOpsFor(op, drivers::nnapiVendorDspDriver(), DType::UInt8);
    EXPECT_GT(nnapi, snpe);
}

TEST(Plan, SummaryMentionsNameAndPartitions)
{
    const auto g = models::buildGraph("mobilenet_v1", DType::Float32);
    const auto plan =
        buildPlan(g, DType::Float32, {}, drivers::tfliteCpuDriver());
    const auto s = plan.summary();
    EXPECT_NE(s.find("mobilenet_v1"), std::string::npos);
    EXPECT_NE(s.find("1 partition"), std::string::npos);
}

// --- execution ---------------------------------------------------------

sim::TimeNs
runPlan(soc::SocSystem &sys, const ExecutionPlan &plan,
        ExecOptions opts,
        std::vector<soc::FastRpcBreakdown> *rpc_log = nullptr)
{
    InvokeContext ctx("inference", 1, rpc_log);
    auto task = std::make_shared<soc::Task>("exec");
    appendPlanExecution(sys, *task, plan, opts, ctx);
    sim::TimeNs done = 0;
    task->setOnComplete([&](sim::TimeNs t) { done = t; });
    sys.scheduler().submit(task);
    sys.run();
    return done;
}

TEST(Execute, MoreThreadsFaster)
{
    const auto g = models::buildGraph("inception_v3", DType::Float32);
    const auto plan =
        buildPlan(g, DType::Float32, {}, drivers::tfliteCpuDriver());

    soc::SocSystem s1(soc::makeSnapdragon845());
    ExecOptions o1;
    o1.cpuThreads = 1;
    const auto t1 = runPlan(s1, plan, o1);

    soc::SocSystem s4(soc::makeSnapdragon845());
    ExecOptions o4;
    o4.cpuThreads = 4;
    const auto t4 = runPlan(s4, plan, o4);

    EXPECT_LT(t4, t1);
    EXPECT_GT(static_cast<double>(t1) / t4, 2.5);
}

TEST(Execute, GpuPlanUsesGpuQueue)
{
    const auto g = models::buildGraph("mobilenet_v1", DType::Float32);
    const auto plan = buildPlan(g, DType::Float32,
                                {&drivers::tfliteGpuDelegateDriver()},
                                drivers::tfliteCpuDriver());
    soc::SocSystem sys(soc::makeSnapdragon845());
    runPlan(sys, plan, {});
    EXPECT_EQ(sys.gpu().jobsCompleted(), 1);
    EXPECT_EQ(sys.dsp().jobsCompleted(), 0);
}

TEST(Execute, DspPlanCrossesFastRpc)
{
    const auto g = models::buildGraph("mobilenet_v1", DType::UInt8);
    const auto plan =
        buildPlan(g, DType::UInt8,
                  {&drivers::tfliteHexagonDelegateDriver()},
                  drivers::tfliteCpuDriver());
    soc::SocSystem sys(soc::makeSnapdragon845());
    std::vector<soc::FastRpcBreakdown> log;
    runPlan(sys, plan, {}, &log);
    EXPECT_EQ(sys.dsp().jobsCompleted(), 1);
    ASSERT_EQ(log.size(), 1u);
    EXPECT_GT(log[0].sessionOpenNs, 0); // cold start
}

TEST(Execute, NoiseSigmaZeroIsDeterministic)
{
    const auto g = models::buildGraph("mobilenet_v1", DType::Float32);
    const auto plan =
        buildPlan(g, DType::Float32, {}, drivers::tfliteCpuDriver());
    auto run = [&] {
        soc::SocSystem sys(soc::makeSnapdragon845(), 3);
        return runPlan(sys, plan, {});
    };
    EXPECT_EQ(run(), run());
}

TEST(Execute, WorkForCpuNsIsCalibrated)
{
    // workForCpuNs(1e6) should take roughly 1 ms on a big core.
    soc::SocSystem sys(soc::makeSnapdragon845());
    auto task = std::make_shared<soc::Task>("cal");
    task->compute(workForCpuNs(1e6), soc::WorkClass::Scalar);
    sim::TimeNs done = 0;
    task->setOnComplete([&](sim::TimeNs t) { done = t; });
    sys.scheduler().submit(task);
    sys.run();
    EXPECT_NEAR(sim::nsToMs(done), 1.0, 0.15);
}

TEST(Execute, MultiPartitionPlanIssuesOneGpuJobPerPartition)
{
    // Inception v3 fp32 under the NNAPI vendor GPU driver fragments
    // into alternating GPU / CPU-reference partitions.
    const auto g = models::buildGraph("inception_v3", DType::Float32);
    const auto plan = buildPlan(g, DType::Float32,
                                {&drivers::nnapiVendorGpuDriver()},
                                drivers::nnapiCpuReferenceDriver());
    std::int64_t gpu_partitions = 0;
    for (const auto &p : plan.partitions)
        gpu_partitions += p.driver->isAccelerated();
    ASSERT_GT(gpu_partitions, 1);

    soc::SocSystem sys(soc::makeSnapdragon845());
    runPlan(sys, plan, {});
    EXPECT_EQ(sys.gpu().jobsCompleted(), gpu_partitions);
    EXPECT_EQ(sys.dsp().jobsCompleted(), 0);
}

TEST(Execute, BackgroundOptionRoutesWorkersToLittleCores)
{
    const auto g = models::buildGraph("mobilenet_v1", DType::Float32);
    const auto plan =
        buildPlan(g, DType::Float32, {}, drivers::tfliteCpuDriver());
    // Background execution must be slower: little cores are weaker.
    soc::SocSystem fg_sys(soc::makeSnapdragon845());
    const auto fg = runPlan(fg_sys, plan, {});
    soc::SocSystem bg_sys(soc::makeSnapdragon845());
    ExecOptions bg_opts;
    bg_opts.background = true;
    const auto bg = runPlan(bg_sys, plan, bg_opts);
    EXPECT_GT(bg, fg);
}

TEST(Execute, TightlyCoupledDspSkipsFastRpc)
{
    const auto g = models::buildGraph("mobilenet_v1", DType::UInt8);
    const auto plan =
        buildPlan(g, DType::UInt8,
                  {&drivers::tfliteHexagonDelegateDriver()},
                  drivers::tfliteCpuDriver());

    auto platform = soc::makeSnapdragon845();
    platform.dsp.tightlyCoupled = true;
    soc::SocSystem sys(platform);
    std::vector<soc::FastRpcBreakdown> log;
    const auto tight_time = runPlan(sys, plan, {}, &log);
    EXPECT_EQ(sys.dsp().jobsCompleted(), 1);
    EXPECT_TRUE(log.empty());                 // no FastRPC crossing
    EXPECT_EQ(sys.fastrpc().callsCompleted(), 0);

    soc::SocSystem loose_sys(soc::makeSnapdragon845());
    const auto loose_time = runPlan(loose_sys, plan, {});
    // No session open / kernel hops: tight is faster, by >= the 15 ms
    // session cost on this first invocation.
    EXPECT_LT(tight_time, loose_time - sim::msToNs(10.0));
}

// --- TFLite front-end ---------------------------------------------------

TEST(Tflite, DelegateNames)
{
    using tflite::DelegateKind;
    EXPECT_EQ(tflite::delegateName(DelegateKind::None), "cpu");
    EXPECT_EQ(tflite::delegateName(DelegateKind::Hexagon),
              "hexagon-delegate");
}

TEST(Tflite, CpuInterpreterSinglePartition)
{
    tflite::Interpreter interp(
        models::buildGraph("mobilenet_v1", DType::Float32),
        DType::Float32, {});
    EXPECT_EQ(interp.plan().partitions.size(), 1u);
    EXPECT_GT(interp.modelInitNs(), 0);
}

TEST(Tflite, GpuDelegateInitCostsMore)
{
    auto g = [&] {
        return models::buildGraph("mobilenet_v1", DType::Float32);
    };
    tflite::Interpreter cpu(g(), DType::Float32, {});
    tflite::InterpreterOptions gpu_opts;
    gpu_opts.delegate = tflite::DelegateKind::Gpu;
    tflite::Interpreter gpu(g(), DType::Float32, gpu_opts);
    EXPECT_GT(gpu.modelInitNs(), cpu.modelInitNs());
}

TEST(Tflite, InitScalesWithModelSize)
{
    tflite::Interpreter small(
        models::buildGraph("squeezenet", DType::Float32),
        DType::Float32, {});
    tflite::Interpreter large(
        models::buildGraph("inception_v4", DType::Float32),
        DType::Float32, {});
    EXPECT_GT(large.modelInitNs(), small.modelInitNs());
}

// --- NNAPI ----------------------------------------------------------------

TEST(Nnapi, QuantizedSupportedModelTargetsDsp)
{
    nnapi::Compilation comp(
        models::buildGraph("mobilenet_v1", DType::UInt8), DType::UInt8);
    EXPECT_TRUE(comp.plan().usesAccelerator());
    EXPECT_NEAR(comp.plan().acceleratedMacShare(), 1.0, 1e-9);
    EXPECT_GT(comp.compileNs(), 0);
}

TEST(Nnapi, EfficientNetInt8FallsBackEntirely)
{
    // Fig 5: the whole model lands on the CPU reference path.
    nnapi::Compilation comp(
        models::buildGraph("efficientnet_lite0", DType::UInt8),
        DType::UInt8);
    EXPECT_FALSE(comp.plan().usesAccelerator());
    ASSERT_EQ(comp.plan().partitions.size(), 1u);
    EXPECT_EQ(comp.plan().partitions[0].driver->target(),
              drivers::Target::CpuSingleThreadReference);
}

TEST(Nnapi, FloatModelsTargetGpu)
{
    nnapi::Compilation comp(
        models::buildGraph("efficientnet_lite0", DType::Float32),
        DType::Float32);
    EXPECT_TRUE(comp.plan().usesAccelerator());
}

TEST(Nnapi, InceptionFloatPartiallyOffloaded)
{
    nnapi::Compilation comp(
        models::buildGraph("inception_v3", DType::Float32),
        DType::Float32);
    const double share = comp.plan().acceleratedMacShare();
    EXPECT_GT(share, 0.3);
    EXPECT_LT(share, 0.85);
}

TEST(Nnapi, BurstPlanReducesPerOpOverhead)
{
    nnapi::Compilation comp(
        models::buildGraph("mobilenet_v1", DType::UInt8), DType::UInt8);
    sim::DurationNs plain = 0;
    sim::DurationNs burst = 0;
    for (const auto &p : comp.plan().partitions)
        plain += p.opOverheadNs;
    for (const auto &p : comp.burstPlan().partitions)
        burst += p.opOverheadNs;
    EXPECT_GT(plain, 0);
    EXPECT_LT(burst, plain / 2);
    // Everything else is unchanged.
    EXPECT_EQ(comp.burstPlan().partitions.size(),
              comp.plan().partitions.size());
    EXPECT_DOUBLE_EQ(comp.burstPlan().acceleratedMacShare(),
                     comp.plan().acceleratedMacShare());
}

TEST(Nnapi, BurstExecutionIsFaster)
{
    auto run = [&](bool burst) {
        tflite::InterpreterOptions opts;
        opts.delegate = tflite::DelegateKind::Nnapi;
        opts.useNnapiBurst = burst;
        tflite::Interpreter interp(
            models::buildGraph("mobilenet_v1", DType::UInt8),
            DType::UInt8, opts);
        soc::SocSystem sys(soc::makeSnapdragon845(), 3);
        auto task = std::make_shared<soc::Task>("burst_test");
        InvokeContext ctx("inference");
        interp.appendInvoke(sys, *task, {}, ctx);
        sim::TimeNs done = 0;
        task->setOnComplete([&](sim::TimeNs t) { done = t; });
        sys.scheduler().submit(task);
        sys.run();
        return done;
    };
    EXPECT_LT(run(true), run(false));
}

TEST(Nnapi, CompileCostGrowsWithPartitions)
{
    nnapi::Compilation one(
        models::buildGraph("mobilenet_v1", DType::UInt8), DType::UInt8);
    nnapi::Compilation many(
        models::buildGraph("inception_v3", DType::Float32),
        DType::Float32);
    EXPECT_GT(many.compileNs(), one.compileNs());
}

// --- graceful degradation ---------------------------------------------

TEST(Degradation, ChainStepsDownAndTerminates)
{
    using drivers::Target;
    // DSP work falls to the GPU, then to optimized CPU kernels.
    const auto from_dsp = degradationChainAfter(Target::Dsp);
    ASSERT_EQ(from_dsp.size(), 2u);
    EXPECT_EQ(from_dsp[0], Target::Gpu);
    EXPECT_EQ(from_dsp[1], Target::CpuThreads);
    // GPU work has only the CPU left.
    const auto from_gpu = degradationChainAfter(Target::Gpu);
    ASSERT_EQ(from_gpu.size(), 1u);
    EXPECT_EQ(from_gpu[0], Target::CpuThreads);
    // CPU work has nowhere to go: the chain must terminate.
    EXPECT_TRUE(degradationChainAfter(Target::CpuThreads).empty());
    EXPECT_TRUE(
        degradationChainAfter(Target::CpuSingleThreadReference).empty());
}

TEST(Nnapi, FallbackPlanIsAllCpuReference)
{
    // The last-resort recompilation target must never itself depend
    // on an accelerator, whatever the primary plan looked like.
    nnapi::Compilation comp(
        models::buildGraph("mobilenet_v1", DType::UInt8), DType::UInt8);
    EXPECT_TRUE(comp.plan().usesAccelerator());
    const auto &fb = comp.fallbackPlan();
    EXPECT_FALSE(fb.usesAccelerator());
    ASSERT_EQ(fb.partitions.size(), 1u);
    EXPECT_EQ(fb.partitions[0].driver->target(),
              drivers::Target::CpuSingleThreadReference);
    EXPECT_EQ(fb.partitions[0].opCount,
              models::buildGraph("mobilenet_v1", DType::UInt8).opCount());
}

// --- SNPE -------------------------------------------------------------

TEST(Snpe, DspTargetFullyAccelerated)
{
    snpe::Network net(models::buildGraph("mobilenet_v1", DType::UInt8),
                      DType::UInt8);
    EXPECT_EQ(net.target(), snpe::RuntimeTarget::Dsp);
    EXPECT_NEAR(net.plan().acceleratedMacShare(), 1.0, 1e-9);
    EXPECT_GT(net.initNs(), 0);
}

TEST(Snpe, HandlesEfficientNetOnDsp)
{
    // Unlike the NNAPI vendor driver, SNPE runs all of
    // EfficientNet-Lite0's ops on the DSP.
    snpe::Network net(
        models::buildGraph("efficientnet_lite0", DType::UInt8),
        DType::UInt8);
    EXPECT_NEAR(net.plan().acceleratedMacShare(), 1.0, 1e-9);
}

TEST(Snpe, CpuTargetStaysOnCpu)
{
    snpe::Network net(models::buildGraph("mobilenet_v1", DType::UInt8),
                      DType::UInt8, snpe::RuntimeTarget::Cpu);
    EXPECT_FALSE(net.plan().usesAccelerator());
}

TEST(Snpe, FloatModelRunsAsFp16OnDsp)
{
    snpe::Network net(
        models::buildGraph("mobilenet_v1", DType::Float32),
        DType::Float32);
    EXPECT_TRUE(net.plan().usesAccelerator());
    // Executes without assertion failures (fp32 jobs map to fp16).
    soc::SocSystem sys(soc::makeSnapdragon845());
    auto task = std::make_shared<soc::Task>("snpe_fp");
    InvokeContext ctx("inference");
    net.appendInvoke(sys, *task, {}, ctx);
    sys.scheduler().submit(task);
    sys.run();
    EXPECT_EQ(sys.dsp().jobsCompleted(), 1);
}

} // namespace
} // namespace aitax::runtime
