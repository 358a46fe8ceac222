#include "verify/scenario.h"

#include <cassert>
#include <memory>
#include <sstream>

#include "app/background_load.h"
#include "soc/chipsets.h"
#include "sweep/snapshot_cache.h"
#include "trace/chrome_trace.h"

namespace aitax::verify {

namespace {

/** "Snapdragon 845" -> "sd845" (filesystem-safe platform tag). */
std::string
socTag(const std::string &soc_name)
{
    std::string digits;
    for (char c : soc_name)
        if (c >= '0' && c <= '9')
            digits += c;
    return digits.empty() ? std::string("soc") : "sd" + digits;
}

} // namespace

std::string
Scenario::label() const
{
    std::ostringstream os;
    os << modelId << "_" << socTag(socName) << "_"
       << tensor::dtypeName(dtype) << "_" << app::frameworkName(framework)
       << "_" << app::harnessModeName(mode) << "_r" << runs;
    if (dspLoadProcesses > 0)
        os << "_dsp" << dspLoadProcesses;
    if (cpuLoadProcesses > 0)
        os << "_cpu" << cpuLoadProcesses;
    if (streaming)
        os << "_stream";
    if (threads != 4)
        os << "_t" << threads;
    if (instrumentation)
        os << "_instr";
    if (faults)
        os << "_flt";
    os << "_s" << seed;
    std::string out = os.str();
    for (char &c : out)
        if (c == '-')
            c = '_';
    return out;
}

std::string
Scenario::describe() const
{
    std::ostringstream os;
    os << modelId << " on " << socName << ", "
       << tensor::dtypeName(dtype) << "/" << app::frameworkName(framework)
       << ", mode=" << app::harnessModeName(mode) << ", runs=" << runs
       << ", bg(dsp=" << dspLoadProcesses << ",cpu=" << cpuLoadProcesses
       << ")";
    if (streaming)
        os << ", streaming";
    if (threads != 4)
        os << ", threads=" << threads;
    if (instrumentation)
        os << ", instrumented";
    if (faults)
        os << ", faults";
    os << ", seed=" << seed;
    return os.str();
}

bool
scenarioValid(const Scenario &s)
{
    const auto *m = models::findModel(s.modelId);
    if (m == nullptr || s.runs <= 0)
        return false;
    if (tensor::isQuantized(s.dtype) && !m->cpuInt8)
        return false;
    if (s.framework == app::FrameworkKind::TfliteNnapi &&
        !m->supports(true, s.dtype))
        return false;
    // SNPE has no transformer kernels.
    if (s.framework == app::FrameworkKind::SnpeDsp &&
        m->task == models::Task::LanguageProcessing)
        return false;
    // The Hexagon delegate only ingests quantized graphs.
    if (s.framework == app::FrameworkKind::TfliteHexagon &&
        !tensor::isQuantized(s.dtype))
        return false;
    return true;
}

Scenario
sampleScenario(sim::RandomStream &rng)
{
    static const app::FrameworkKind kFrameworks[] = {
        app::FrameworkKind::TfliteCpu,     app::FrameworkKind::TfliteGpu,
        app::FrameworkKind::TfliteHexagon, app::FrameworkKind::TfliteNnapi,
        app::FrameworkKind::SnpeDsp,
    };
    static const app::HarnessMode kModes[] = {
        app::HarnessMode::CliBenchmark,
        app::HarnessMode::BenchmarkApp,
        app::HarnessMode::AndroidApp,
    };

    const auto &zoo = models::allModels();
    const auto &platforms = soc::allPlatforms();

    for (;;) {
        Scenario s;
        s.modelId = zoo[static_cast<std::size_t>(rng.uniformInt(
                            0, static_cast<std::int64_t>(zoo.size()) - 1))]
                        .id;
        s.socName =
            platforms[static_cast<std::size_t>(rng.uniformInt(
                          0,
                          static_cast<std::int64_t>(platforms.size()) - 1))]
                .socName;
        s.dtype = rng.bernoulli(0.5) ? tensor::DType::Float32
                                     : tensor::DType::UInt8;
        s.framework = kFrameworks[rng.uniformInt(0, 4)];
        s.mode = kModes[rng.uniformInt(0, 2)];
        s.runs = static_cast<int>(rng.uniformInt(4, 12));
        s.dspLoadProcesses = static_cast<int>(rng.uniformInt(0, 2));
        s.cpuLoadProcesses = static_cast<int>(rng.uniformInt(0, 2));
        s.streaming = rng.bernoulli(0.25);
        s.seed = rng.nextU64() >> 1;
        if (scenarioValid(s))
            return s;
    }
}

Scenario
fuzzScenario(std::uint64_t master_seed, int index)
{
    sim::RandomStream rng(master_seed,
                          "verify-fuzz-" + std::to_string(index));
    return sampleScenario(rng);
}

std::string
replayCommand(std::uint64_t master_seed, int index)
{
    std::ostringstream os;
    os << "aitax_cli verify --seed " << master_seed << " --replay "
       << index;
    return os.str();
}

SnapshotUse
classifySnapshotUse(const Scenario &s)
{
    // Streaming and background-load runs are deliberately NOT excluded:
    // their warm-up prefix is identical to the quiet one (loops start
    // post-warm-up, stream phase is drawn at construction), and the key
    // still separates them so unlike configurations never share an
    // entry.
    if (s.mode != app::HarnessMode::CliBenchmark)
        return SnapshotUse::IneligibleMode;
    return SnapshotUse::Eligible;
}

std::string
snapshotKey(const Scenario &s)
{
    std::ostringstream os;
    os << "warmup-v3|soc=" << s.socName << "|model=" << s.modelId
       << "|dtype=" << tensor::dtypeName(s.dtype)
       << "|fw=" << app::frameworkName(s.framework)
       << "|mode=" << app::harnessModeName(s.mode)
       << "|threads=" << s.threads
       << "|instr=" << (s.instrumentation ? 1 : 0)
       << "|stream=" << (s.streaming ? 1 : 0)
       << "|dspload=" << s.dspLoadProcesses
       << "|cpuload=" << s.cpuLoadProcesses
       << "|faults=" << (s.faults ? 1 : 0);
    return os.str();
}

sim::Arena &
scenarioArena()
{
    static thread_local sim::Arena arena;
    return arena;
}

namespace {

app::PipelineConfig
pipelineConfigFor(const Scenario &s)
{
    app::PipelineConfig cfg;
    cfg.model = models::findModel(s.modelId);
    cfg.dtype = s.dtype;
    cfg.framework = s.framework;
    cfg.mode = s.mode;
    cfg.threads = s.threads;
    cfg.instrumentationEnabled = s.instrumentation;
    cfg.streamingCapture = s.streaming;
    return cfg;
}

/**
 * Arena-construct the scenario's background inference loops (not
 * started — the caller decides when, which is what keeps the warm-up
 * prefix load-independent). Construction is inert: no RNG draws, no
 * event scheduling, so building them before the warm-up changes
 * nothing observable.
 */
std::vector<app::BackgroundInferenceLoop *>
buildLoops(sim::Arena &arena, soc::SocSystem &sys, const Scenario &s)
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

/** Everything after quiescence: meters, witnesses, the trace. */
void
collectResult(soc::SocSystem &sys, const app::Application &application,
              const std::vector<app::BackgroundInferenceLoop *> &loops,
              Outputs outputs, ScenarioResult &out)
{
    if (sys.faults() != nullptr)
        out.faultStats = sys.faults()->stats();
    out.energyMj = sys.energy().totalMj();
    out.thermalSpeedFactor = sys.thermal().speedFactor();
    out.eventsExecuted = sys.simulator().eventsExecuted();
    out.frontCacheHits = sys.simulator().frontCacheHits();
    for (const auto *loop : loops)
        out.backgroundInferences += loop->completedInferences();
    if (outputs == Outputs::Summary)
        return;
    out.rpcLog = application.rpcLog();
    out.frameLog = application.frameLog();
    out.chromeTraceJson = trace::chromeTraceString(sys.tracer());
}

/**
 * True when @p snap can stand in for this system's own warm-up: every
 * thermal emergency in the armed plan must fire strictly after the
 * snapshot time, otherwise the emergency would have altered (or
 * interleaved with) the warm-up this run is about to skip.
 */
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

} // namespace

/**
 * CLI-benchmark (snapshot-eligible) scenarios run the split schedule —
 * warm-up, then background-loop start, then frames — on both engines,
 * so Reference produces the exact event sequence a memoized Fast run
 * replays: the byte-compare contract of the differential tier. Fast
 * restores a cached post-warm-up state when one exists and fits this
 * run's fault plan, otherwise it executes the warm-up and publishes
 * the capture; it falls back to executing the warm-up (never to wrong
 * results) whenever capture or reuse is not possible. App-mode
 * scenarios keep the single-shot schedule: their interference
 * interleaves with the warm-up by design.
 */
ScenarioResult
runScenario(const Scenario &s, sim::EngineMode engine, Outputs outputs)
{
    assert(scenarioValid(s));
    // All run state lives in the thread's arena; the guard resets it
    // (running registered finalizers in reverse creation order) after
    // the result — which holds no pointers into the arena — is out.
    sim::Arena &arena = scenarioArena();
    sim::ArenaResetGuard guard(arena);

    const bool split = classifySnapshotUse(s) == SnapshotUse::Eligible;
    const bool memoize = split && engine == sim::EngineMode::Fast;
    std::string key;
    std::shared_ptr<const soc::WarmupSnapshot> cached;
    if (memoize) {
        key = snapshotKey(s);
        cached = std::static_pointer_cast<const soc::WarmupSnapshot>(
            sweep::snapshotCacheLookup(key));
    }

    soc::SocSystem &sys = *arena.create<soc::SocSystem>(
        soc::platformByName(s.socName), s.seed, engine, &arena);
    // Arm faults before any component forks the system RNG, so the
    // fault schedule is a pure function of (platform, seed).
    if (s.faults)
        sys.armFaults(faults::FaultConfig::fuzzDefaults());
    // Seq watermark after fault arming, before any warm-up work: the
    // base that snapshot seqs are stored (and restored) relative to.
    const std::uint64_t seq_base = sys.simulator().seqWatermark();
    app::Application &application =
        *arena.create<app::Application>(sys, pipelineConfigFor(s));
    auto loops = buildLoops(arena, sys, s);

    ScenarioResult out;
    auto stop_loops = [&loops](sim::TimeNs) {
        for (auto *loop : loops)
            loop->stop();
    };
    if (split) {
        if (cached && snapshotUsable(sys.faults(), *cached)) {
            sys.restoreWarmup(*cached);
            application.adoptRestoredWarmup();
        } else {
            application.scheduleWarmup(s.runs, out.report);
            sys.simulator().runUntilCondition(
                [&application] { return application.warmupComplete(); });
            if (memoize && !cached) {
                auto snap = std::make_shared<soc::WarmupSnapshot>();
                if (sys.captureWarmup(*snap, seq_base))
                    sweep::snapshotCacheStore(key, std::move(snap));
            }
        }
        for (auto *loop : loops)
            loop->start(sys.simulator().now() + sim::secToNs(60.0));
        application.scheduleFramesAfterWarmup(s.runs, out.report,
                                              stop_loops);
    } else {
        for (auto *loop : loops)
            loop->start(sim::secToNs(60.0));
        application.scheduleRuns(s.runs, out.report, stop_loops);
    }
    out.endTimeNs = sys.run();
    collectResult(sys, application, loops, outputs, out);
    return out;
}

} // namespace aitax::verify
