/**
 * @file
 * Unit tests for the SoC substrate: scheduler, accelerators, FastRPC,
 * thermal model, interference and chipset presets.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <memory>
#include <utility>
#include <vector>

#include "soc/accelerator.h"
#include "soc/chipsets.h"
#include "soc/dvfs.h"
#include "soc/energy.h"
#include "soc/fastrpc.h"
#include "soc/interference.h"
#include "soc/memory.h"
#include "soc/scheduler.h"
#include "soc/system.h"
#include "soc/task.h"
#include "soc/thermal.h"

namespace aitax::soc {
namespace {

using tensor::DType;

SocConfig
testConfig()
{
    return makeSnapdragon845();
}

// --- configs / chipsets ------------------------------------------------

TEST(CpuCoreConfig, OpsPerCycleByClass)
{
    CpuCoreConfig c;
    c.scalarOpsPerCycle = 1.0;
    c.f32OpsPerCycle = 4.0;
    c.i8OpsPerCycle = 8.0;
    EXPECT_DOUBLE_EQ(c.opsPerCycle(WorkClass::Scalar), 1.0);
    EXPECT_DOUBLE_EQ(c.opsPerCycle(WorkClass::VectorF32), 4.0);
    EXPECT_DOUBLE_EQ(c.opsPerCycle(WorkClass::VectorI8), 8.0);
}

TEST(Chipsets, FourTableIIPlatforms)
{
    const auto all = allPlatforms();
    ASSERT_EQ(all.size(), 4u);
    EXPECT_EQ(all[0].socName, "Snapdragon 835");
    EXPECT_EQ(all[3].socName, "Snapdragon 865");
    EXPECT_EQ(all[1].name, "Google Pixel 3");
    EXPECT_EQ(all[1].gpu.name, "Adreno 630");
    EXPECT_EQ(all[1].dsp.name, "Hexagon 685");
}

TEST(Chipsets, EightCoreBigLittle)
{
    const auto cfg = testConfig();
    ASSERT_EQ(cfg.cluster.cores.size(), 8u);
    int bigs = 0;
    for (const auto &c : cfg.cluster.cores)
        bigs += c.big;
    EXPECT_EQ(bigs, 4);
}

TEST(Chipsets, GenerationalPerformanceMonotonic)
{
    const auto all = allPlatforms();
    for (std::size_t i = 1; i < all.size(); ++i) {
        EXPECT_GT(all[i].dsp.i8OpsPerSec, all[i - 1].dsp.i8OpsPerSec);
        EXPECT_GT(all[i].gpu.f32OpsPerSec, all[i - 1].gpu.f32OpsPerSec);
    }
}

TEST(Chipsets, DspHasNoNativeFp32)
{
    for (const auto &cfg : allPlatforms()) {
        EXPECT_EQ(cfg.dsp.f32OpsPerSec, 0.0) << cfg.socName;
        EXPECT_GT(cfg.dsp.i8OpsPerSec, 0.0);
    }
}

TEST(Chipsets, LookupByName)
{
    EXPECT_EQ(platformByName("Snapdragon 855").gpu.name, "Adreno 640");
}

// --- thermal -----------------------------------------------------------

TEST(Thermal, DisabledAlwaysFullSpeed)
{
    sim::Simulator sim;
    ThermalConfig cfg;
    cfg.enabled = false;
    ThermalModel t(cfg, sim);
    t.addHeat(100.0);
    EXPECT_DOUBLE_EQ(t.speedFactor(), 1.0);
}

TEST(Thermal, HeatsAndThrottles)
{
    sim::Simulator sim;
    ThermalConfig cfg;
    cfg.enabled = true;
    cfg.heatPerBusySec = 1.0;
    cfg.throttleThreshold = 2.0;
    cfg.throttledFactor = 0.7;
    ThermalModel t(cfg, sim);
    t.addHeat(1.0);
    EXPECT_DOUBLE_EQ(t.speedFactor(), 1.0); // below threshold
    t.addHeat(3.0);                          // heat = 4 = 2x threshold
    EXPECT_NEAR(t.speedFactor(), 0.7, 1e-9);
    t.addHeat(100.0);
    EXPECT_NEAR(t.speedFactor(), 0.7, 1e-9); // clamped
}

TEST(Thermal, EmergencyEnablesAndThrottles)
{
    sim::Simulator sim;
    ThermalConfig cfg; // enabled = false, like most presets
    cfg.throttleThreshold = 2.0;
    cfg.throttledFactor = 0.7;
    ThermalModel t(cfg, sim);
    t.addHeat(100.0);
    EXPECT_DOUBLE_EQ(t.speedFactor(), 1.0); // disabled: no effect
    // An injected emergency force-enables the model and throttles
    // even platforms whose preset keeps thermal off.
    t.triggerEmergency(100.0);
    EXPECT_NEAR(t.speedFactor(), 0.7, 1e-9);
}

TEST(Thermal, CoolsOverTime)
{
    sim::Simulator sim;
    ThermalConfig cfg;
    cfg.enabled = true;
    cfg.coolingTauSec = 1.0;
    ThermalModel t(cfg, sim);
    t.addHeat(4.0);
    const double hot = t.heatLevel();
    sim.scheduleIn(sim::secToNs(2.0), [] {});
    sim.run();
    EXPECT_LT(t.heatLevel(), hot * 0.2); // two time constants
}

TEST(Thermal, ResetClears)
{
    sim::Simulator sim;
    ThermalConfig cfg;
    cfg.enabled = true;
    ThermalModel t(cfg, sim);
    t.addHeat(10.0);
    t.reset();
    EXPECT_DOUBLE_EQ(t.heatLevel(), 0.0);
}

// --- scheduler -----------------------------------------------------------

TEST(Scheduler, SingleComputeTaskTiming)
{
    SocSystem sys(testConfig());
    // 3.64e6 scalar ops at 2.8 GHz x 1.3 ops/cycle = 1 ms on a big core.
    auto task = std::make_shared<Task>("t");
    task->compute({3.64e6, 0.0}, WorkClass::Scalar);
    sim::TimeNs done = 0;
    task->setOnComplete([&](sim::TimeNs t) { done = t; });
    sys.scheduler().submit(task);
    sys.run();
    // 5 us context switch + ~1 ms compute.
    EXPECT_NEAR(sim::nsToMs(done), 1.005, 0.01);
    EXPECT_EQ(task->state(), TaskState::Done);
}

TEST(Scheduler, ForegroundPrefersBigCore)
{
    SocSystem sys(testConfig());
    auto task = std::make_shared<Task>("fg");
    task->compute({1e6, 0.0}, WorkClass::Scalar);
    sys.scheduler().submit(task);
    sys.run();
    // Big cores are indices 4..7.
    EXPECT_GE(task->lastCore(), 4);
}

TEST(Scheduler, BackgroundPrefersLittleCore)
{
    SocSystem sys(testConfig());
    auto task = std::make_shared<Task>("bg", /*background=*/true);
    task->compute({1e6, 0.0}, WorkClass::Scalar);
    sys.scheduler().submit(task);
    sys.run();
    EXPECT_LT(task->lastCore(), 4);
}

TEST(Scheduler, ParallelTasksUseSeparateCores)
{
    SocSystem sys(testConfig());
    // Two 1 ms tasks should finish in ~1 ms, not ~2 ms.
    sim::TimeNs last = 0;
    // Task names are views: they must outlive the run.
    constexpr const char *kNames[] = {"p0", "p1"};
    for (int i = 0; i < 2; ++i) {
        auto task = std::make_shared<Task>(kNames[i]);
        task->compute({3.64e6, 0.0}, WorkClass::Scalar);
        task->setOnComplete(
            [&](sim::TimeNs t) { last = std::max(last, t); });
        sys.scheduler().submit(task);
    }
    sys.run();
    EXPECT_LT(sim::nsToMs(last), 1.2);
}

TEST(Scheduler, OversubscriptionSharesWithRoundRobin)
{
    // 9 foreground tasks on 8 cores: at least one pair must share, so
    // completion of the last task takes roughly twice one task's time.
    SocSystem sys(testConfig());
    sim::TimeNs last = 0;
    constexpr const char *kNames[] = {"q0", "q1", "q2", "q3", "q4",
                                      "q5", "q6", "q7", "q8"};
    for (int i = 0; i < 9; ++i) {
        auto task = std::make_shared<Task>(kNames[i]);
        // 13 ms on a big core (several time slices).
        task->compute({3.64e6 * 13, 0.0}, WorkClass::Scalar);
        task->setOnComplete(
            [&](sim::TimeNs t) { last = std::max(last, t); });
        sys.scheduler().submit(task);
    }
    sys.run();
    EXPECT_GT(sys.scheduler().contextSwitches(), 0);
    // Little cores are ~3.6x slower on scalar work; the shared pair on
    // a big core finishes around 26 ms, stragglers on little cores
    // around 37 ms. It must exceed a single task's isolated time.
    EXPECT_GT(sim::nsToMs(last), 20.0);
}

TEST(Scheduler, MarkersFireInOrderWithTimestamps)
{
    SocSystem sys(testConfig());
    std::vector<sim::TimeNs> ts;
    auto task = std::make_shared<Task>("m");
    task->marker([&](sim::TimeNs t) { ts.push_back(t); });
    task->compute({3.64e6, 0.0}, WorkClass::Scalar);
    task->marker([&](sim::TimeNs t) { ts.push_back(t); });
    task->compute({3.64e6, 0.0}, WorkClass::Scalar);
    task->marker([&](sim::TimeNs t) { ts.push_back(t); });
    sys.scheduler().submit(task);
    sys.run();
    ASSERT_EQ(ts.size(), 3u);
    EXPECT_LT(ts[0], ts[1]);
    EXPECT_LT(ts[1], ts[2]);
    EXPECT_NEAR(sim::nsToMs(ts[1] - ts[0]), 1.0, 0.02);
}

TEST(Scheduler, SleepReleasesCore)
{
    SocSystem sys(testConfig());
    auto sleeper = std::make_shared<Task>("sleeper");
    sleeper->sleep(sim::msToNs(10.0));
    sim::TimeNs sleeper_done = 0;
    sleeper->setOnComplete([&](sim::TimeNs t) { sleeper_done = t; });
    sys.scheduler().submit(sleeper);
    sys.run();
    EXPECT_NEAR(sim::nsToMs(sleeper_done), 10.0, 0.1);
}

TEST(Scheduler, BlockStepResumes)
{
    SocSystem sys(testConfig());
    auto task = std::make_shared<Task>("blocker");
    bool external_ran = false;
    task->block([&](Task &, std::function<void()> resume) {
        external_ran = true;
        sys.simulator().scheduleIn(sim::msToNs(5.0), resume);
    });
    task->compute({3.64e6, 0.0}, WorkClass::Scalar);
    sim::TimeNs done = 0;
    task->setOnComplete([&](sim::TimeNs t) { done = t; });
    sys.scheduler().submit(task);
    sys.run();
    EXPECT_TRUE(external_ran);
    EXPECT_NEAR(sim::nsToMs(done), 6.0, 0.1);
}

TEST(Scheduler, MemoryBoundWorkUsesByteRate)
{
    SocSystem sys(testConfig());
    // 6.5e6 bytes at 6.5 GB/s = 1 ms, with negligible flops.
    auto task = std::make_shared<Task>("memcpyish");
    task->compute({10.0, 6.5e6}, WorkClass::Scalar);
    sim::TimeNs done = 0;
    task->setOnComplete([&](sim::TimeNs t) { done = t; });
    sys.scheduler().submit(task);
    sys.run();
    EXPECT_NEAR(sim::nsToMs(done), 1.005, 0.02);
}

TEST(Scheduler, TracksCoreIntervals)
{
    SocSystem sys(testConfig());
    auto task = std::make_shared<Task>("traced");
    task->compute({3.64e6, 0.0}, WorkClass::Scalar);
    sys.scheduler().submit(task);
    sys.run();
    const trace::Tracer &tracer = sys.tracer();
    bool found = false;
    for (const trace::TrackId id : tracer.sortedNonEmptyTracks())
        for (const trace::LabelId label : tracer.track(id).labels)
            found |= (tracer.labelName(label) == "traced");
    EXPECT_TRUE(found);
}

TEST(Scheduler, VectorClassesRunFasterThanScalar)
{
    SocSystem sys(testConfig());
    sim::TimeNs scalar_done = 0;
    sim::TimeNs vector_done = 0;
    auto s = std::make_shared<Task>("s");
    s->compute({10e6, 0.0}, WorkClass::Scalar);
    s->setOnComplete([&](sim::TimeNs t) { scalar_done = t; });
    auto v = std::make_shared<Task>("v");
    v->compute({10e6, 0.0}, WorkClass::VectorI8);
    v->setOnComplete([&](sim::TimeNs t) { vector_done = t; });
    sys.scheduler().submit(s);
    sys.scheduler().submit(v);
    sys.run();
    EXPECT_LT(vector_done, scalar_done);
}

TEST(Scheduler, LoadBalanceMigrationsAreDeterministic)
{
    auto run_once = [] {
        SocSystem sys(testConfig(), 5);
        // One long-running lone task: migration churn comes only from
        // the load balancer's seeded RNG.
        auto task = std::make_shared<Task>("lone");
        task->compute({3.64e6 * 200, 0.0}, WorkClass::Scalar);
        sys.scheduler().submit(task);
        sys.run();
        return sys.scheduler().migrations();
    };
    const auto a = run_once();
    EXPECT_GT(a, 0); // ~200 ms of slices at p=0.12
    EXPECT_EQ(a, run_once());

    // At p=1 every slice expiry draws a destination among the idle
    // big cores. The pinned count and core sequence fix the draws
    // exactly, so a rewrite of the balancer must match draw for draw.
    SocConfig cfg = testConfig();
    cfg.cluster.loadBalanceProb = 1.0;
    SocSystem sys(cfg, 5);
    auto task = std::make_shared<Task>("lone");
    task->compute({3.64e6 * 48, 0.0}, WorkClass::Scalar);
    sys.scheduler().submit(task);
    sys.run();
    // One interval per dispatch; order them by start time.
    std::vector<std::pair<sim::TimeNs, int>> runs;
    const trace::Tracer &tracer = sys.tracer();
    for (const trace::TrackId id : tracer.sortedNonEmptyTracks()) {
        int core = -1;
        for (std::size_t i = 0; i < cfg.cluster.cores.size(); ++i)
            if (cfg.cluster.cores[i].name == tracer.trackName(id))
                core = static_cast<int>(i);
        for (const sim::TimeNs begin : tracer.track(id).begins)
            runs.emplace_back(begin, core);
    }
    std::sort(runs.begin(), runs.end());
    std::vector<int> cores;
    for (const auto &run : runs)
        cores.push_back(run.second);
    EXPECT_EQ(sys.scheduler().migrations(), 11);
    EXPECT_EQ(cores, (std::vector<int>{4, 5, 7, 4, 6, 5, 7, 5, 7, 6, 5, 4}));
}

TEST(Scheduler, ThermalEmergencyMidSliceRecomputesTheSliceDuration)
{
    // With thermal, DVFS and fabric contention all off at a slice's
    // end, the scheduler reuses the step duration computed when the
    // slice started. An emergency inside the slice switches thermal
    // on, so that slice's byte and energy shares must come from a
    // duration recomputed at its end: the pinned doubles are those.
    SocConfig cfg = testConfig();
    cfg.thermal.enabled = false;
    cfg.dvfs.enabled = false;
    cfg.fabric.contentionEnabled = false;
    cfg.cluster.loadBalanceProb = 0.0; // the lone task renews in place
    SocSystem sys(cfg);
    auto task = std::make_shared<Task>("hot");
    task->compute({3.64e6 * 20, 200e6}, WorkClass::Scalar);
    sys.scheduler().submit(task);
    // Slices end at 4.005 ms and 8.005 ms (5 us context switch first).
    sys.simulator().scheduleAt(sim::msToNs(6.0), [&sys, &cfg] {
        sys.thermal().triggerEmergency(2.0 * cfg.thermal.throttleThreshold);
    });
    sys.run();
    trace::Tracer &tracer = sys.tracer();
    const auto &axi = tracer.counterStore(tracer.internCounter("axi_bytes"));
    ASSERT_GE(axi.size(), 2u);
    EXPECT_EQ(axi.whens[1], sim::usToNs(8005.0));
    EXPECT_EQ(axi.values[1], 18203127.46415684);
    EXPECT_EQ(sys.energy().domainMj(PowerDomain::BigCpu),
              29.349975223776585);
}

// --- accelerator -----------------------------------------------------------

TEST(Accelerator, FormatSupport)
{
    sim::Simulator sim;
    trace::Tracer tracer;
    Accelerator dsp(sim, testConfig().dsp, tracer);
    EXPECT_FALSE(dsp.supportsFormat(DType::Float32));
    EXPECT_TRUE(dsp.supportsFormat(DType::Float16));
    EXPECT_TRUE(dsp.supportsFormat(DType::UInt8));

    Accelerator gpu(sim, testConfig().gpu, tracer);
    EXPECT_TRUE(gpu.supportsFormat(DType::Float32));
}

TEST(Accelerator, ExecDurationRoofline)
{
    sim::Simulator sim;
    trace::Tracer tracer;
    auto cfg = testConfig().dsp; // 110 Gops int8, 80 us overhead
    Accelerator dsp(sim, cfg, tracer);
    const auto d = dsp.execDuration(110e6, 0.0, DType::UInt8);
    EXPECT_NEAR(sim::nsToMs(d), 1.0 + 0.08, 0.01);
    // Byte-bound job: 12e6 bytes at 12 GB/s = 1 ms.
    const auto b = dsp.execDuration(10.0, 12e6, DType::UInt8);
    EXPECT_NEAR(sim::nsToMs(b), 1.0 + 0.08, 0.01);
}

TEST(Accelerator, FifoQueueing)
{
    sim::Simulator sim;
    trace::Tracer tracer;
    Accelerator dsp(sim, testConfig().dsp, tracer);
    std::vector<sim::TimeNs> completions;
    for (int i = 0; i < 3; ++i) {
        AccelJob job;
        job.label = tracer.internLabel("j" + std::to_string(i));
        job.ops = 110e6; // ~1.08 ms each
        job.format = DType::UInt8;
        job.onDone = [&](const AccelCompletion &c) {
            completions.push_back(c.finishedAt);
        };
        dsp.submit(std::move(job));
    }
    EXPECT_EQ(dsp.queueDepth(), 2u);
    sim.run();
    ASSERT_EQ(completions.size(), 3u);
    // Serialized: roughly 1.08, 2.16, 3.24 ms.
    EXPECT_NEAR(sim::nsToMs(completions[1] - completions[0]),
                sim::nsToMs(completions[0]), 0.01);
    EXPECT_EQ(dsp.jobsCompleted(), 3);
    EXPECT_FALSE(dsp.busy());
}

// --- FastRPC -----------------------------------------------------------

TEST(FastRpc, FirstCallPaysSessionOpen)
{
    sim::Simulator sim;
    trace::Tracer tracer;
    Accelerator dsp(sim, testConfig().dsp, tracer);
    FastRpcChannel rpc(sim, testConfig().fastrpc, dsp);

    std::vector<FastRpcBreakdown> log;
    for (int i = 0; i < 2; ++i) {
        AccelJob job;
        job.ops = 110e6;
        job.format = DType::UInt8;
        rpc.call(1, 1e6, std::move(job),
                 [&](const FastRpcBreakdown &b, const AccelJob &) { log.push_back(b); });
        sim.run();
    }
    ASSERT_EQ(log.size(), 2u);
    EXPECT_EQ(log[0].sessionOpenNs, sim::msToNs(15.0));
    EXPECT_EQ(log[1].sessionOpenNs, 0);
    EXPECT_GT(log[0].overheadNs(), log[1].overheadNs());
    EXPECT_GT(log[1].dspExecNs, 0);
    EXPECT_EQ(log[1].totalNs(),
              log[1].overheadNs() + log[1].dspExecNs);
}

TEST(FastRpc, SessionsArePerProcess)
{
    sim::Simulator sim;
    trace::Tracer tracer;
    Accelerator dsp(sim, testConfig().dsp, tracer);
    FastRpcChannel rpc(sim, testConfig().fastrpc, dsp);
    std::vector<FastRpcBreakdown> log;
    auto call = [&](std::int32_t pid) {
        AccelJob job;
        job.ops = 1e6;
        job.format = DType::UInt8;
        rpc.call(pid, 1e3, std::move(job),
                 [&](const FastRpcBreakdown &b, const AccelJob &) { log.push_back(b); });
        sim.run();
    };
    call(1);
    call(2);
    ASSERT_EQ(log.size(), 2u);
    EXPECT_GT(log[1].sessionOpenNs, 0); // new process pays again
    EXPECT_TRUE(rpc.sessionOpen(1));
    EXPECT_TRUE(rpc.sessionOpen(2));
    rpc.closeSession(1);
    EXPECT_FALSE(rpc.sessionOpen(1));
}

TEST(FastRpc, CacheFlushScalesWithPayload)
{
    sim::Simulator sim;
    trace::Tracer tracer;
    Accelerator dsp(sim, testConfig().dsp, tracer);
    FastRpcChannel rpc(sim, testConfig().fastrpc, dsp);
    std::vector<FastRpcBreakdown> log;
    auto call = [&](double payload) {
        AccelJob job;
        job.ops = 1e6;
        job.format = DType::UInt8;
        rpc.call(1, payload, std::move(job),
                 [&](const FastRpcBreakdown &b, const AccelJob &) { log.push_back(b); });
        sim.run();
    };
    call(8e6);  // 1 ms at 8 GB/s
    call(16e6); // 2 ms
    EXPECT_NEAR(sim::nsToMs(log[0].cacheFlushNs), 1.0, 0.01);
    EXPECT_NEAR(sim::nsToMs(log[1].cacheFlushNs), 2.0, 0.01);
}

/**
 * Regression for the offload-tax misattribution bug: queue wait used
 * to be derived as (elapsed - exec estimate), with the estimate taken
 * at *enqueue* time. Under fabric contention the estimate embeds the
 * derate of the moment the job is queued; if contention clears before
 * the job dispatches, the actual execution is faster than estimated
 * and the residual "queue wait" goes negative. The fixed accounting
 * uses the accelerator's observed dispatch/completion times.
 *
 * Timeline (all values exact):
 *   t=0      GPU job G dispatches alone (800 KB @ 10 GB/s = 80 us) and
 *            DSP job A dispatches (1e8 ops @ 1e12 ops/s = 100 us,
 *            ops-bound so the derate does not matter).
 *   t=0      rpc.call(B) starts its CPU stages (30 + 20 = 50 us).
 *   t=50us   B lands in the DSP queue behind A. Clients active: G, A
 *            -> derate 1/(1 + 2.0 * 1) = 1/3; the old estimate for the
 *            memory-bound B was 1 MB / (10 GB/s / 3) = 300 us.
 *   t=80us   G finishes; the fabric clears.
 *   t=100us  A finishes, B dispatches alone: actual exec 100 us.
 *   t=200us  B finishes. Old accounting: queueWait = (200 - 50)
 *            - 300 = -150 us. Fixed: queueWait = 100 - 50 = 50 us.
 */
TEST(FastRpc, QueueWaitNonNegativeUnderFabricContention)
{
    sim::Simulator sim;
    trace::Tracer tracer;
    MemoryFabricConfig fabric_cfg;
    fabric_cfg.contentionEnabled = true;
    fabric_cfg.deratePerClient = 2.0;
    fabric_cfg.minFactor = 0.1;
    MemoryFabric fabric(fabric_cfg);

    AcceleratorConfig gpu_cfg;
    gpu_cfg.name = "gpu";
    gpu_cfg.kind = AcceleratorKind::Gpu;
    gpu_cfg.f32OpsPerSec = 1e12;
    gpu_cfg.memBytesPerSec = 10e9;
    gpu_cfg.perJobOverheadNs = 0;
    Accelerator gpu(sim, gpu_cfg, tracer, nullptr, &fabric);

    AcceleratorConfig dsp_cfg;
    dsp_cfg.name = "dsp";
    dsp_cfg.i8OpsPerSec = 1e12;
    dsp_cfg.memBytesPerSec = 10e9;
    dsp_cfg.perJobOverheadNs = 0;
    Accelerator dsp(sim, dsp_cfg, tracer, nullptr, &fabric);

    FastRpcConfig rpc_cfg;
    rpc_cfg.sessionOpenNs = 0;
    rpc_cfg.userToKernelNs = sim::usToNs(30.0);
    rpc_cfg.kernelSignalNs = sim::usToNs(20.0);
    FastRpcChannel rpc(sim, rpc_cfg, dsp);

    AccelJob g;
    g.label = tracer.internLabel("G");
    g.ops = 10.0;
    g.bytes = 800e3;
    g.format = DType::Float32;
    gpu.submit(std::move(g));

    AccelJob a;
    a.label = tracer.internLabel("A");
    a.ops = 1e8;
    a.format = DType::UInt8;
    dsp.submit(std::move(a));

    AccelJob b;
    b.label = tracer.internLabel("B");
    b.ops = 1.0;
    b.bytes = 1e6;
    b.format = DType::UInt8;
    std::vector<FastRpcBreakdown> log;
    rpc.call(1, 0.0, std::move(b),
             [&](const FastRpcBreakdown &bd, const AccelJob &) { log.push_back(bd); });
    sim.run();

    ASSERT_EQ(log.size(), 1u);
    EXPECT_GE(log[0].queueWaitNs, 0);
    EXPECT_EQ(log[0].queueWaitNs, sim::usToNs(50.0));
    EXPECT_EQ(log[0].dspExecNs, sim::usToNs(100.0));
    EXPECT_EQ(log[0].totalNs(),
              log[0].overheadNs() + log[0].dspExecNs);
}

TEST(FastRpc, DropAllSessionsForcesReopen)
{
    sim::Simulator sim;
    trace::Tracer tracer;
    Accelerator dsp(sim, testConfig().dsp, tracer);
    FastRpcChannel rpc(sim, testConfig().fastrpc, dsp);
    std::vector<FastRpcBreakdown> log;
    auto call = [&] {
        AccelJob job;
        job.ops = 1e6;
        job.format = DType::UInt8;
        rpc.call(1, 1e3, std::move(job),
                 [&](const FastRpcBreakdown &b, const AccelJob &) { log.push_back(b); });
        sim.run();
    };
    call();
    rpc.dropAllSessions(); // injected DSP subsystem restart
    EXPECT_FALSE(rpc.sessionOpen(1));
    call();
    ASSERT_EQ(log.size(), 2u);
    EXPECT_GT(log[0].sessionOpenNs, 0);
    EXPECT_GT(log[1].sessionOpenNs, 0); // cold start re-paid (Fig 8)
}

// Misconfigured rate parameters must abort in every build mode: under
// NDEBUG a zero rate reaches a division and the inf -> int64 cast is
// undefined behaviour, so construction fails loudly instead.

TEST(AcceleratorDeathTest, RejectsConfigWithNoComputeRate)
{
    auto cfg = testConfig().dsp;
    cfg.f32OpsPerSec = 0.0;
    cfg.f16OpsPerSec = 0.0;
    cfg.i8OpsPerSec = 0.0;
    EXPECT_DEATH(
        {
            sim::Simulator sim;
            trace::Tracer tracer;
            Accelerator dsp(sim, cfg, tracer);
        },
        "no positive ops rate");
}

TEST(AcceleratorDeathTest, RejectsNonPositiveMemoryBandwidth)
{
    auto cfg = testConfig().dsp;
    cfg.memBytesPerSec = 0.0;
    EXPECT_DEATH(
        {
            sim::Simulator sim;
            trace::Tracer tracer;
            Accelerator dsp(sim, cfg, tracer);
        },
        "non-positive memBytesPerSec");
}

TEST(FastRpcDeathTest, RejectsNonPositiveCacheFlushRate)
{
    auto cfg = testConfig();
    cfg.fastrpc.cacheFlushBytesPerSec = 0.0;
    EXPECT_DEATH(
        {
            sim::Simulator sim;
            trace::Tracer tracer;
            Accelerator dsp(sim, cfg.dsp, tracer);
            FastRpcChannel rpc(sim, cfg.fastrpc, dsp);
        },
        "non-positive cacheFlushBytesPerSec");
}

TEST(FastRpc, QueueWaitWhenDspBusy)
{
    sim::Simulator sim;
    trace::Tracer tracer;
    Accelerator dsp(sim, testConfig().dsp, tracer);
    FastRpcChannel rpc(sim, testConfig().fastrpc, dsp);
    std::vector<FastRpcBreakdown> log;
    auto issue = [&] {
        AccelJob job;
        job.ops = 110e6;
        job.format = DType::UInt8;
        rpc.call(1, 1e3, std::move(job),
                 [&](const FastRpcBreakdown &b, const AccelJob &) { log.push_back(b); });
    };
    // Warm the session so both measured calls enqueue concurrently.
    issue();
    sim.run();
    issue();
    issue();
    sim.run();
    ASSERT_EQ(log.size(), 3u);
    EXPECT_LT(log[1].queueWaitNs, sim::usToNs(100.0));
    EXPECT_GT(log[2].queueWaitNs, sim::usToNs(500.0));
    EXPECT_EQ(rpc.callsCompleted(), 3);
}

// --- interference ----------------------------------------------------------

TEST(Interference, InjectsTasks)
{
    SocSystem sys(testConfig());
    InterferenceConfig cfg;
    cfg.daemonRatePerSec = 100.0;
    InterferenceGenerator gen(sys.simulator(), sys.scheduler(), cfg,
                              sim::RandomStream(5, "i"));
    gen.start(sim::secToNs(0.5));
    sys.run();
    // ~30 UI frames + ~50 daemons.
    EXPECT_GT(gen.tasksInjected(), 40);
    EXPECT_LT(gen.tasksInjected(), 120);
}

TEST(Interference, DisabledInjectsNothing)
{
    SocSystem sys(testConfig());
    InterferenceConfig cfg;
    cfg.enabled = false;
    InterferenceGenerator gen(sys.simulator(), sys.scheduler(), cfg,
                              sim::RandomStream(5, "i"));
    gen.start(sim::secToNs(1.0));
    sys.run();
    EXPECT_EQ(gen.tasksInjected(), 0);
}

TEST(Interference, DeterministicAcrossRuns)
{
    auto run = [] {
        SocSystem sys(testConfig(), 9);
        InterferenceConfig cfg;
        InterferenceGenerator gen(sys.simulator(), sys.scheduler(), cfg,
                                  sim::RandomStream(9, "i"));
        gen.start(sim::secToNs(0.3));
        sys.run();
        return gen.tasksInjected();
    };
    EXPECT_EQ(run(), run());
}


// --- energy ------------------------------------------------------------

TEST(Energy, DomainNames)
{
    EXPECT_EQ(powerDomainName(PowerDomain::BigCpu), "big-cpu");
    EXPECT_EQ(powerDomainName(PowerDomain::Dsp), "dsp");
}

TEST(Energy, DynamicEnergyArithmetic)
{
    EnergyConfig cfg;
    cfg.bigCpuPjPerOp = 100.0;
    EnergyMeter meter(cfg);
    meter.addDynamic(PowerDomain::BigCpu, 1e9); // 1e9 ops * 100 pJ
    EXPECT_NEAR(meter.domainMj(PowerDomain::BigCpu), 100.0, 1e-9);
    EXPECT_NEAR(meter.totalMj(), 100.0, 1e-9);
}

TEST(Energy, StaticEnergyArithmetic)
{
    EnergyConfig cfg;
    cfg.dspStaticMw = 60.0;
    EnergyMeter meter(cfg);
    meter.addStatic(PowerDomain::Dsp, sim::secToNs(2.0)); // 120 mJ
    EXPECT_NEAR(meter.domainMj(PowerDomain::Dsp), 120.0, 1e-9);
}

TEST(Energy, DomainsAreIndependent)
{
    EnergyMeter meter;
    meter.addDynamic(PowerDomain::Gpu, 1e9);
    EXPECT_GT(meter.domainMj(PowerDomain::Gpu), 0.0);
    EXPECT_DOUBLE_EQ(meter.domainMj(PowerDomain::BigCpu), 0.0);
    meter.reset();
    EXPECT_DOUBLE_EQ(meter.totalMj(), 0.0);
}

TEST(Energy, DefaultEfficiencyOrdering)
{
    const EnergyConfig cfg;
    EXPECT_LT(cfg.dspPjPerOp, cfg.gpuPjPerOp);
    EXPECT_LT(cfg.gpuPjPerOp, cfg.littleCpuPjPerOp);
    EXPECT_LT(cfg.littleCpuPjPerOp, cfg.bigCpuPjPerOp);
}

TEST(Energy, SchedulerChargesCpuWork)
{
    SocSystem sys(testConfig());
    auto task = std::make_shared<Task>("hot");
    task->compute({1e9, 0.0}, WorkClass::VectorF32);
    sys.scheduler().submit(task);
    sys.run();
    EXPECT_GT(sys.energy().domainMj(PowerDomain::BigCpu), 0.0);
    EXPECT_DOUBLE_EQ(sys.energy().domainMj(PowerDomain::Dsp), 0.0);
}

TEST(Energy, AcceleratorChargesItsDomain)
{
    SocSystem sys(testConfig());
    AccelJob job;
    job.ops = 1e9;
    job.format = DType::UInt8;
    sys.dsp().submit(std::move(job));
    sys.run();
    EXPECT_GT(sys.energy().domainMj(PowerDomain::Dsp), 0.0);
    EXPECT_DOUBLE_EQ(sys.energy().domainMj(PowerDomain::Gpu), 0.0);
}

// --- task state machine -----------------------------------------------------

TEST(Task, EmptyTaskCompletesImmediately)
{
    SocSystem sys(testConfig());
    auto task = std::make_shared<Task>("empty");
    sim::TimeNs done = -1;
    task->setOnComplete([&](sim::TimeNs t) { done = t; });
    sys.scheduler().submit(task);
    sys.run();
    // Only the dispatch context-switch elapses.
    EXPECT_NEAR(sim::nsToUs(done), 5.0, 0.5);
}

TEST(Task, NullMarkerAndMissingCompletionAreHarmless)
{
    SocSystem sys(testConfig());
    auto task = std::make_shared<Task>("quiet");
    task->marker({}); // no callback
    task->compute({1e3, 0.0}, WorkClass::Scalar);
    // No onComplete set.
    sys.scheduler().submit(task);
    sys.run();
    EXPECT_EQ(task->state(), TaskState::Done);
}

TEST(Task, StepsCanBeAppendedWhileRunning)
{
    SocSystem sys(testConfig());
    auto task = std::make_shared<Task>("self_extend");
    int phase = 0;
    task->compute({3.64e6, 0.0}, WorkClass::Scalar);
    task->marker([&](sim::TimeNs) {
        phase = 1;
        // Self-extending program: append more work mid-flight.
        task->compute({3.64e6, 0.0}, WorkClass::Scalar);
        task->marker([&](sim::TimeNs) { phase = 2; });
    });
    sys.scheduler().submit(task);
    sys.run();
    EXPECT_EQ(phase, 2);
    EXPECT_EQ(task->state(), TaskState::Done);
}

// --- memory fabric ---------------------------------------------------------

TEST(MemoryFabric, DisabledNeverDerates)
{
    MemoryFabric fabric;
    fabric.onClientChange(+5);
    EXPECT_DOUBLE_EQ(fabric.derateFactor(), 1.0);
}

TEST(MemoryFabric, DeratesWithClients)
{
    MemoryFabricConfig cfg;
    cfg.contentionEnabled = true;
    cfg.deratePerClient = 0.15;
    MemoryFabric fabric(cfg);
    EXPECT_DOUBLE_EQ(fabric.derateFactor(), 1.0); // idle
    fabric.onClientChange(+1);
    EXPECT_DOUBLE_EQ(fabric.derateFactor(), 1.0); // alone
    fabric.onClientChange(+1);
    EXPECT_NEAR(fabric.derateFactor(), 1.0 / 1.15, 1e-9);
    fabric.onClientChange(+2);
    EXPECT_NEAR(fabric.derateFactor(), 1.0 / 1.45, 1e-9);
    fabric.onClientChange(-3);
    EXPECT_DOUBLE_EQ(fabric.derateFactor(), 1.0);
}

TEST(MemoryFabric, FactorIsFloored)
{
    MemoryFabricConfig cfg;
    cfg.contentionEnabled = true;
    cfg.deratePerClient = 1.0;
    cfg.minFactor = 0.45;
    MemoryFabric fabric(cfg);
    fabric.onClientChange(+50);
    EXPECT_DOUBLE_EQ(fabric.derateFactor(), 0.45);
}

TEST(MemoryFabric, ContentionSlowsMemoryBoundWork)
{
    auto run_once = [&](bool contention) {
        auto cfg = testConfig();
        cfg.fabric.contentionEnabled = contention;
        SocSystem sys(cfg);
        // Two concurrent memory-bound tasks.
        sim::TimeNs last = 0;
        constexpr const char *kNames[] = {"mem0", "mem1"};
        for (int i = 0; i < 2; ++i) {
            auto task = std::make_shared<Task>(kNames[i]);
            task->compute({10.0, 6.5e6}, WorkClass::Scalar);
            task->setOnComplete(
                [&](sim::TimeNs t) { last = std::max(last, t); });
            sys.scheduler().submit(task);
        }
        sys.run();
        return last;
    };
    EXPECT_GT(run_once(true), run_once(false));
}

// --- DVFS ----------------------------------------------------------------

TEST(Dvfs, DisabledIsAlwaysFullSpeed)
{
    sim::Simulator sim;
    DvfsGovernor gov({}, sim);
    EXPECT_DOUBLE_EQ(gov.factor(true), 1.0);
    EXPECT_DOUBLE_EQ(gov.factor(false), 1.0);
}

TEST(Dvfs, StartsAtFloorAndRampsWhileBusy)
{
    sim::Simulator sim;
    DvfsConfig cfg;
    cfg.enabled = true;
    cfg.minFactor = 0.5;
    cfg.rampUpTauNs = sim::msToNs(10.0);
    DvfsGovernor gov(cfg, sim);
    EXPECT_NEAR(gov.factor(true), 0.5, 1e-9);
    gov.onBusyChange(true, +1);
    sim.scheduleIn(sim::msToNs(30.0), [] {});
    sim.run();
    // Three time constants in: ~95% of the way to 1.0.
    EXPECT_GT(gov.factor(true), 0.95);
}

TEST(Dvfs, DecaysWhenIdle)
{
    sim::Simulator sim;
    DvfsConfig cfg;
    cfg.enabled = true;
    cfg.minFactor = 0.5;
    cfg.rampUpTauNs = sim::msToNs(5.0);
    cfg.decayTauNs = sim::msToNs(50.0);
    DvfsGovernor gov(cfg, sim);
    gov.onBusyChange(false, +1);
    sim.scheduleIn(sim::msToNs(50.0), [] {});
    sim.run();
    const double hot = gov.factor(false);
    gov.onBusyChange(false, -1);
    sim.scheduleIn(sim::msToNs(200.0), [] {});
    sim.run();
    EXPECT_LT(gov.factor(false), hot);
    EXPECT_GE(gov.factor(false), cfg.minFactor);
}

TEST(Dvfs, TiersAreIndependent)
{
    sim::Simulator sim;
    DvfsConfig cfg;
    cfg.enabled = true;
    cfg.minFactor = 0.5;
    cfg.rampUpTauNs = sim::msToNs(5.0);
    DvfsGovernor gov(cfg, sim);
    gov.onBusyChange(true, +1); // only the big tier heats up
    sim.scheduleIn(sim::msToNs(30.0), [] {});
    sim.run();
    EXPECT_GT(gov.factor(true), 0.9);
    EXPECT_NEAR(gov.factor(false), 0.5, 1e-6);
}

TEST(Dvfs, ResetClearsBusyCounters)
{
    sim::Simulator sim;
    DvfsConfig cfg;
    cfg.enabled = true;
    cfg.minFactor = 0.5;
    cfg.rampUpTauNs = sim::msToNs(5.0);
    DvfsGovernor gov(cfg, sim);
    gov.onBusyChange(true, +1);
    // Regression: reset() used to leave busyCores stale, so a freshly
    // reset governor kept ramping toward 1.0 as if still loaded.
    gov.reset();
    sim.scheduleIn(sim::msToNs(50.0), [] {});
    sim.run();
    EXPECT_NEAR(gov.factor(true), 0.5, 1e-6);
    // Busy accounting still works after the reset.
    gov.onBusyChange(true, +1);
    sim.scheduleIn(sim::msToNs(50.0), [] {});
    sim.run();
    EXPECT_GT(gov.factor(true), 0.95);
}

TEST(Dvfs, GovernorSlowsColdStartInScheduler)
{
    auto run_once = [&](bool enabled) {
        auto cfg = testConfig();
        cfg.dvfs.enabled = enabled;
        SocSystem sys(cfg);
        auto task = std::make_shared<Task>("cold");
        task->compute({3.64e6, 0.0}, WorkClass::Scalar);
        sim::TimeNs done = 0;
        task->setOnComplete([&](sim::TimeNs t) { done = t; });
        sys.scheduler().submit(task);
        sys.run();
        return done;
    };
    EXPECT_GT(run_once(true), run_once(false));
}

// --- system ------------------------------------------------------------


TEST(SocSystem, ComponentsWired)
{
    SocSystem sys(testConfig(), 42);
    EXPECT_EQ(sys.config().socName, "Snapdragon 845");
    EXPECT_EQ(sys.scheduler().coreCount(), 8u);
    EXPECT_EQ(sys.dsp().name(), "Hexagon 685");
    EXPECT_EQ(sys.gpu().name(), "Adreno 630");
    EXPECT_TRUE(sys.simulator().idle());
}

} // namespace
} // namespace aitax::soc
