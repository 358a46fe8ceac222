#include "decompose.h"

#include <memory>
#include <sstream>

#include "app/background_load.h"
#include "models/zoo.h"
#include "soc/chipsets.h"
#include "spans.h"
#include "sweep/snapshot_cache.h"
#include "trace/chrome_trace.h"

namespace aitax::bench {

namespace {

// The helpers below copy src/verify/scenario.cc's private ones.

app::PipelineConfig
pipelineConfigFor(const verify::Scenario &s)
{
    app::PipelineConfig cfg;
    cfg.model = models::findModel(s.modelId);
    cfg.dtype = s.dtype;
    cfg.framework = s.framework;
    cfg.mode = s.mode;
    cfg.streamingCapture = s.streaming;
    return cfg;
}

std::vector<app::BackgroundInferenceLoop *>
buildLoops(sim::Arena &arena, soc::SocSystem &sys, const verify::Scenario &s)
{
    std::vector<app::BackgroundInferenceLoop *> loops;
    auto add = [&](int count, app::FrameworkKind fw, int base_pid) {
        for (int i = 0; i < count; ++i) {
            app::BackgroundLoadConfig bg;
            bg.model = models::findModel("mobilenet_v1");
            bg.dtype = tensor::DType::UInt8;
            bg.framework = fw;
            bg.processId = base_pid + i;
            loops.push_back(
                arena.create<app::BackgroundInferenceLoop>(sys, bg));
        }
    };
    add(s.dspLoadProcesses, app::FrameworkKind::TfliteHexagon, 100);
    add(s.cpuLoadProcesses, app::FrameworkKind::TfliteCpu, 200);
    return loops;
}

bool
snapshotUsable(const faults::FaultInjector *inj,
               const soc::WarmupSnapshot &snap)
{
    if (inj == nullptr)
        return true;
    for (sim::TimeNs when : inj->plan().thermalEmergencyAtNs)
        if (when <= snap.endTimeNs)
            return false;
    return true;
}

template <typename Fn>
void
timeStep(Decomposition &d, const char *layer, Fn &&fn)
{
    Step st{layer, nowNs(), 0};
    fn();
    st.endNs = nowNs();
    d.steps.push_back(st);
}

} // namespace

verify::ScenarioResult
decomposeScenario(const verify::Scenario &s, Decomposition &d)
{
    d = Decomposition{};
    d.beginNs = nowNs();
    sim::Arena &arena = verify::scenarioArena();
    verify::ScenarioResult out;
    {
        const bool memoize = verify::classifySnapshotUse(s) ==
                             verify::SnapshotUse::Eligible;
        std::string key;
        std::shared_ptr<const soc::WarmupSnapshot> cached;
        if (memoize) {
            key = verify::snapshotKey(s);
            cached = std::static_pointer_cast<const soc::WarmupSnapshot>(
                sweep::snapshotCacheLookup(key));
        }

        soc::SocSystem *sys = nullptr;
        app::Application *application = nullptr;
        std::vector<app::BackgroundInferenceLoop *> loops;
        std::uint64_t seq_base = 0;
        timeStep(d, "soc.construct", [&] {
            sys = arena.create<soc::SocSystem>(
                soc::platformByName(s.socName), s.seed,
                sim::EngineMode::Fast, &arena);
            if (s.faults)
                sys->armFaults(faults::FaultConfig::fuzzDefaults());
            seq_base = sys->simulator().seqWatermark();
            application =
                arena.create<app::Application>(*sys, pipelineConfigFor(s));
            loops = buildLoops(arena, *sys, s);
        });
        auto stop_loops = [&loops](sim::TimeNs) {
            for (auto *loop : loops)
                loop->stop();
        };

        if (memoize) {
            if (cached && snapshotUsable(sys->faults(), *cached)) {
                timeStep(d, "soc.warmup_restore", [&] {
                    sys->restoreWarmup(*cached);
                    application->adoptRestoredWarmup();
                });
                d.warmupRestored = true;
            } else {
                timeStep(d, "sim.loop", [&] {
                    application->scheduleWarmup(s.runs, out.report);
                    sys->simulator().runUntilCondition([application] {
                        return application->warmupComplete();
                    });
                });
                if (!cached)
                    timeStep(d, "soc.warmup_capture", [&] {
                        auto snap = std::make_shared<soc::WarmupSnapshot>();
                        if (sys->captureWarmup(*snap, seq_base)) {
                            sweep::snapshotCacheStore(key, std::move(snap));
                            d.warmupCaptured = true;
                        }
                    });
            }
            timeStep(d, "sim.loop", [&] {
                for (auto *loop : loops)
                    loop->start(sys->simulator().now() +
                                sim::secToNs(60.0));
                application->scheduleFramesAfterWarmup(s.runs, out.report,
                                                       stop_loops);
                out.endTimeNs = sys->run();
            });
        } else {
            timeStep(d, "sim.loop", [&] {
                for (auto *loop : loops)
                    loop->start(sim::secToNs(60.0));
                application->scheduleRuns(s.runs, out.report, stop_loops);
                out.endTimeNs = sys->run();
            });
        }

        timeStep(d, "verify.collect_copy", [&] {
            out.rpcLog = application->rpcLog();
            out.frameLog = application->frameLog();
            if (sys->faults() != nullptr)
                out.faultStats = sys->faults()->stats();
            out.energyMj = sys->energy().totalMj();
            out.thermalSpeedFactor = sys->thermal().speedFactor();
            out.eventsExecuted = sys->simulator().eventsExecuted();
            for (const auto *loop : loops)
                out.backgroundInferences += loop->completedInferences();
        });
        timeStep(d, "trace.serialize", [&] {
            std::ostringstream trace;
            trace::writeChromeTrace(trace, sys->tracer());
            out.chromeTraceJson = trace.str();
        });
        d.frontCacheHits = sys->simulator().frontCacheHits();
        d.jsonBytes = out.chromeTraceJson.size();
    }
    timeStep(d, "sim.arena_reset", [&] { arena.reset(); });
    d.arenaHighWaterBytes = arena.highWaterBytes();
    d.endNs = nowNs();
    return out;
}

} // namespace aitax::bench
