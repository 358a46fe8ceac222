/**
 * @file
 * Fault-injection subsystem tests: plan determinism, spec parsing,
 * injected session loss / transient retries / watchdog kills /
 * thermal emergencies, graceful degradation along the NNAPI chain,
 * and the degraded-mode accounting column.
 */

#include <gtest/gtest.h>

#include <sstream>
#include <vector>

#include "app/pipeline.h"
#include "faults/fault_plan.h"
#include "faults/injector.h"
#include "soc/chipsets.h"
#include "soc/system.h"
#include "trace/chrome_trace.h"

namespace aitax::faults {
namespace {

using tensor::DType;

// --- fault plans -------------------------------------------------------

TEST(FaultPlan, DisabledPlanDrawsNothing)
{
    FaultConfig cfg; // enabled = false
    cfg.thermalEmergencies = 5;
    sim::RandomStream rng(1, "faults");
    const FaultPlan plan = makeFaultPlan(cfg, rng);
    EXPECT_TRUE(plan.thermalEmergencyAtNs.empty());
    // The stream was not consumed: a fresh fork sees identical draws.
    sim::RandomStream probe(1, "faults");
    EXPECT_EQ(rng.nextU64(), probe.nextU64());
}

TEST(FaultPlan, DeterministicFromSeed)
{
    FaultConfig cfg = FaultConfig::fuzzDefaults();
    cfg.thermalEmergencies = 3;
    auto draw = [&](std::uint64_t seed) {
        sim::RandomStream rng(seed, "faults");
        return makeFaultPlan(cfg, rng).describe();
    };
    EXPECT_EQ(draw(42), draw(42));
    EXPECT_NE(draw(42), draw(43));
}

TEST(FaultPlan, EmergencyTimesAreStrictlyIncreasing)
{
    FaultConfig cfg = FaultConfig::fuzzDefaults();
    cfg.thermalEmergencies = 8;
    sim::RandomStream rng(7, "faults");
    const FaultPlan plan = makeFaultPlan(cfg, rng);
    ASSERT_EQ(plan.thermalEmergencyAtNs.size(), 8u);
    sim::TimeNs last = 0;
    for (sim::TimeNs t : plan.thermalEmergencyAtNs) {
        EXPECT_GT(t, last);
        last = t;
    }
}

// --- spec parsing ------------------------------------------------------

TEST(FaultSpec, NamedPresets)
{
    FaultConfig cfg;
    std::string error;
    ASSERT_TRUE(parseFaultSpec("default", &cfg, &error));
    EXPECT_TRUE(cfg.enabled);
    EXPECT_DOUBLE_EQ(cfg.sessionLossProb, 0.04);
    ASSERT_TRUE(parseFaultSpec("fuzz", &cfg, &error));
    EXPECT_DOUBLE_EQ(cfg.transientFailureProb, 0.08);
}

TEST(FaultSpec, KeyValueListWithUnits)
{
    FaultConfig cfg;
    std::string error;
    ASSERT_TRUE(parseFaultSpec(
        "session-loss=0.5,transient=0.25,max-attempts=4,detect-us=40,"
        "backoff-us=100,hang=0.1,stall-ms=3,watchdog-ms=1.5,"
        "thermal=2,thermal-gap-ms=50,thermal-heat=6",
        &cfg, &error))
        << error;
    EXPECT_TRUE(cfg.enabled);
    EXPECT_DOUBLE_EQ(cfg.sessionLossProb, 0.5);
    EXPECT_DOUBLE_EQ(cfg.transientFailureProb, 0.25);
    EXPECT_EQ(cfg.maxAttempts, 4);
    EXPECT_EQ(cfg.transientDetectNs, sim::usToNs(40.0));
    EXPECT_EQ(cfg.retryBackoffBaseNs, sim::usToNs(100.0));
    EXPECT_DOUBLE_EQ(cfg.hangProb, 0.1);
    EXPECT_EQ(cfg.hangStallNs, sim::msToNs(3.0));
    EXPECT_EQ(cfg.watchdogTimeoutNs, sim::msToNs(1.5));
    EXPECT_EQ(cfg.thermalEmergencies, 2);
    EXPECT_EQ(cfg.thermalEmergencyGapNs, sim::msToNs(50.0));
    EXPECT_DOUBLE_EQ(cfg.thermalEmergencyHeat, 6.0);
}

TEST(FaultSpec, RejectsMalformedInput)
{
    FaultConfig cfg;
    std::string error;
    EXPECT_FALSE(parseFaultSpec("session-loss", &cfg, &error));
    EXPECT_NE(error.find("key=value"), std::string::npos);
    EXPECT_FALSE(parseFaultSpec("no-such-key=1", &cfg, &error));
    EXPECT_FALSE(parseFaultSpec("transient=1.5", &cfg, &error)); // > 1
    EXPECT_FALSE(parseFaultSpec("max-attempts=0", &cfg, &error));
    EXPECT_FALSE(parseFaultSpec("stall-ms=abc", &cfg, &error));
}

// --- arming ------------------------------------------------------------

TEST(ArmFaults, DisabledConfigIsANoop)
{
    soc::SocSystem sys(soc::makeSnapdragon845(), 5);
    sys.armFaults(FaultConfig{}); // enabled = false
    EXPECT_EQ(sys.faults(), nullptr);
}

TEST(ArmFaults, DisabledArmLeavesTraceByteIdentical)
{
    auto run = [](bool arm_disabled) {
        soc::SocSystem sys(soc::makeSnapdragon845(), 5);
        if (arm_disabled)
            sys.armFaults(FaultConfig{});
        soc::AccelJob job;
        job.label = sys.tracer().internLabel("probe");
        job.ops = 1e8;
        job.format = DType::UInt8;
        sys.dsp().submit(std::move(job));
        sys.run();
        std::ostringstream os;
        trace::writeChromeTrace(os, sys.tracer());
        return os.str();
    };
    EXPECT_EQ(run(false), run(true));
}

// --- injected faults ---------------------------------------------------

/** Injector wired to a raw accelerator + channel for focused tests. */
struct RpcRig
{
    sim::Simulator sim;
    trace::Tracer tracer;
    soc::Accelerator dsp;
    soc::FastRpcChannel rpc;
    FaultInjector injector;

    explicit RpcRig(const FaultConfig &cfg, std::uint64_t seed = 11)
        : dsp(sim, soc::makeSnapdragon845().dsp, tracer),
          rpc(sim, soc::makeSnapdragon845().fastrpc, dsp),
          injector(makePlan(cfg, seed), sim::RandomStream(seed, "flt"),
                   &tracer)
    {
        dsp.setFaultInjector(&injector);
        rpc.setFaultInjector(&injector);
    }

    static FaultPlan makePlan(const FaultConfig &cfg, std::uint64_t seed)
    {
        sim::RandomStream rng(seed, "plan");
        return makeFaultPlan(cfg, rng);
    }

    soc::FastRpcBreakdown callOnce()
    {
        std::vector<soc::FastRpcBreakdown> log;
        soc::AccelJob job;
        job.ops = 1e6;
        job.format = DType::UInt8;
        rpc.call(1, 1e3, std::move(job),
                 [&](const soc::FastRpcBreakdown &b, const soc::AccelJob &) {
                     log.push_back(b);
                 });
        sim.run();
        EXPECT_EQ(log.size(), 1u);
        return log.empty() ? soc::FastRpcBreakdown{} : log.front();
    }
};

TEST(Faults, SessionLossRepaysSessionOpen)
{
    FaultConfig cfg;
    cfg.enabled = true;
    cfg.sessionLossProb = 1.0; // every call loses the session
    RpcRig rig(cfg);
    const auto first = rig.callOnce();
    const auto second = rig.callOnce();
    EXPECT_GT(first.sessionOpenNs, 0);
    EXPECT_GT(second.sessionOpenNs, 0); // Fig 8 cold start re-paid
    EXPECT_EQ(rig.injector.stats().sessionLosses, 2);
}

TEST(Faults, TransientFailuresRetryThenFailPermanently)
{
    FaultConfig cfg;
    cfg.enabled = true;
    cfg.transientFailureProb = 1.0; // every attempt dies
    cfg.maxAttempts = 3;
    cfg.transientDetectNs = sim::usToNs(80.0);
    cfg.retryBackoffBaseNs = sim::usToNs(200.0);
    RpcRig rig(cfg);

    bool inner_done_fired = false;
    std::vector<soc::FastRpcBreakdown> log;
    soc::AccelJob job;
    job.ops = 1e6;
    job.format = DType::UInt8;
    job.onDone = [&](const soc::AccelCompletion &) {
        inner_done_fired = true;
    };
    rig.rpc.call(1, 1e3, std::move(job),
                 [&](const soc::FastRpcBreakdown &b, const soc::AccelJob &) {
                     log.push_back(b);
                 });
    rig.sim.run();

    ASSERT_EQ(log.size(), 1u);
    const auto &b = log[0];
    EXPECT_TRUE(b.failed);
    EXPECT_FALSE(inner_done_fired); // failed call never ran the job
    EXPECT_EQ(b.retries, 2);
    EXPECT_EQ(b.dspExecNs, 0);
    // 3 detects (80 us each) + backoffs 200 us and 400 us.
    EXPECT_EQ(b.retryNs, sim::usToNs(3 * 80.0 + 200.0 + 400.0));
    EXPECT_EQ(b.totalNs(), b.overheadNs());

    const FaultStats &st = rig.injector.stats();
    EXPECT_EQ(st.transientFailures, 3);
    EXPECT_EQ(st.retries, 2);
    EXPECT_EQ(st.permanentFailures, 1);
}

TEST(Faults, WatchdogKillsGuaranteedHang)
{
    FaultConfig cfg;
    cfg.enabled = true;
    cfg.hangProb = 1.0;
    cfg.hangStallNs = sim::msToNs(10.0);    // min stall 5 ms ...
    cfg.watchdogTimeoutNs = sim::msToNs(1.0); // ... >> watchdog
    RpcRig rig(cfg);

    std::vector<soc::AccelCompletion> completions;
    soc::AccelJob job;
    job.label = rig.tracer.internLabel("hung");
    job.ops = 1e6;
    job.format = DType::UInt8;
    job.onDone = [&](const soc::AccelCompletion &c) {
        completions.push_back(c);
    };
    rig.dsp.submit(std::move(job));
    rig.sim.run();

    ASSERT_EQ(completions.size(), 1u);
    EXPECT_TRUE(completions[0].failed);
    EXPECT_EQ(completions[0].execNs, 0);
    EXPECT_EQ(completions[0].finishedAt - completions[0].startedAt,
              sim::msToNs(1.0)); // killed exactly at the timeout
    EXPECT_EQ(rig.dsp.jobsCompleted(), 0); // produced no work
    EXPECT_EQ(rig.injector.stats().watchdogKills, 1);
}

TEST(Faults, SubWatchdogStallJustFinishesLate)
{
    FaultConfig cfg;
    cfg.enabled = true;
    cfg.hangProb = 1.0;
    cfg.hangStallNs = sim::msToNs(1.0);       // max stall 1.5 ms ...
    cfg.watchdogTimeoutNs = sim::msToNs(2.4); // ... < watchdog
    RpcRig rig(cfg);

    const sim::DurationNs nominal =
        rig.dsp.execDuration(1e6, 0.0, DType::UInt8);
    std::vector<soc::AccelCompletion> completions;
    soc::AccelJob job;
    job.label = rig.tracer.internLabel("slow");
    job.ops = 1e6;
    job.format = DType::UInt8;
    job.onDone = [&](const soc::AccelCompletion &c) {
        completions.push_back(c);
    };
    rig.dsp.submit(std::move(job));
    rig.sim.run();

    ASSERT_EQ(completions.size(), 1u);
    EXPECT_FALSE(completions[0].failed);
    EXPECT_GE(completions[0].execNs, nominal + sim::msToNs(0.5));
    EXPECT_EQ(rig.dsp.jobsCompleted(), 1);
    EXPECT_EQ(rig.injector.stats().watchdogKills, 0);
}

TEST(Faults, ThermalEmergenciesFireOnSchedule)
{
    FaultConfig cfg;
    cfg.enabled = true;
    cfg.thermalEmergencies = 2;
    cfg.thermalEmergencyGapNs = sim::msToNs(10.0);
    cfg.thermalEmergencyHeat = 100.0;
    soc::SocSystem sys(soc::makeSnapdragon845(), 5);
    sys.armFaults(cfg);
    ASSERT_NE(sys.faults(), nullptr);
    ASSERT_EQ(sys.faults()->plan().thermalEmergencyAtNs.size(), 2u);
    sys.run(); // drains the scheduled emergencies
    EXPECT_EQ(sys.faults()->stats().thermalEmergencies, 2);
    // The spike throttles even though the SD845 preset keeps the
    // thermal model disabled.
    EXPECT_LT(sys.thermal().speedFactor(), 1.0);
}

// --- graceful degradation end to end -----------------------------------

TEST(Degradation, PermanentDspFailureFallsDownTheChain)
{
    FaultConfig cfg;
    cfg.enabled = true;
    cfg.transientFailureProb = 1.0; // every offload fails permanently
    cfg.maxAttempts = 2;

    soc::SocSystem sys(soc::makeSnapdragon845(), 21);
    sys.armFaults(cfg);

    app::PipelineConfig pc;
    pc.model = models::findModel("mobilenet_v1");
    pc.dtype = DType::UInt8;
    pc.framework = app::FrameworkKind::SnpeDsp;
    pc.mode = app::HarnessMode::CliBenchmark;
    app::Application application(sys, pc);

    core::TaxReport report;
    application.scheduleRuns(4, report);
    sys.run();

    // Every run completed despite the dead DSP path.
    EXPECT_EQ(report.runs(), 4u);
    const FaultStats &st = sys.faults()->stats();
    EXPECT_GT(st.permanentFailures, 0);
    ASSERT_FALSE(st.fallbacks.empty());
    for (const auto &fb : st.fallbacks)
        EXPECT_GT(static_cast<int>(fb.to), static_cast<int>(fb.from));
    // One degraded-mode sample per run, none exceeding its e2e wall.
    ASSERT_EQ(report.degradedMode().count(), 4u);
    for (std::size_t i = 0; i < 4; ++i) {
        EXPECT_GT(report.degradedMode().raw()[i], 0.0);
        EXPECT_LE(report.degradedMode().raw()[i],
                  report.endToEnd().raw()[i]);
    }
}

TEST(Degradation, UnfaultedReportHasNoDegradedColumn)
{
    soc::SocSystem sys(soc::makeSnapdragon845(), 21);
    app::PipelineConfig pc;
    pc.model = models::findModel("mobilenet_v1");
    pc.dtype = DType::UInt8;
    pc.framework = app::FrameworkKind::SnpeDsp;
    pc.mode = app::HarnessMode::CliBenchmark;
    app::Application application(sys, pc);
    core::TaxReport report;
    application.scheduleRuns(4, report);
    sys.run();
    EXPECT_EQ(report.degradedMode().count(), 0u);
    std::ostringstream os;
    report.render(os);
    EXPECT_EQ(os.str().find("degraded"), std::string::npos);
}

TEST(Degradation, FaultedRunsAreDeterministic)
{
    auto run = [] {
        FaultConfig cfg = FaultConfig::fuzzDefaults();
        soc::SocSystem sys(soc::makeSnapdragon845(), 77);
        sys.armFaults(cfg);
        app::PipelineConfig pc;
        pc.model = models::findModel("mobilenet_v1");
        pc.dtype = DType::UInt8;
        pc.framework = app::FrameworkKind::TfliteHexagon;
        pc.mode = app::HarnessMode::AndroidApp;
        app::Application application(sys, pc);
        core::TaxReport report;
        application.scheduleRuns(6, report);
        sys.run();
        std::ostringstream os;
        trace::writeChromeTrace(os, sys.tracer());
        return os.str();
    };
    const std::string a = run();
    EXPECT_EQ(a, run());
    EXPECT_NE(a.find("fault"), std::string::npos)
        << "fuzz defaults injected nothing over 6 runs";
}

} // namespace
} // namespace aitax::faults
