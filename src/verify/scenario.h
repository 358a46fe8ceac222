/**
 * @file
 * Seeded scenario sampling for the verification subsystem.
 *
 * A Scenario is one fully-specified experiment: a (model x chipset x
 * framework x harness mode x background load) point with its own root
 * seed. Scenarios are sampled deterministically from a master seed, so
 * any failing configuration found by the fuzzer can be replayed
 * bit-exactly from the (master seed, index) pair it prints.
 */

#ifndef AITAX_VERIFY_SCENARIO_H
#define AITAX_VERIFY_SCENARIO_H

#include <cstdint>
#include <string>
#include <vector>

#include "app/pipeline.h"
#include "core/tax_report.h"
#include "faults/injector.h"
#include "sim/arena.h"
#include "sim/random.h"
#include "soc/fastrpc.h"

namespace aitax::verify {

/** One fully-specified verification experiment. */
struct Scenario
{
    std::string modelId = "mobilenet_v1";
    std::string socName = "Snapdragon 845";
    tensor::DType dtype = tensor::DType::Float32;
    app::FrameworkKind framework = app::FrameworkKind::TfliteCpu;
    app::HarnessMode mode = app::HarnessMode::AndroidApp;
    /** Pipeline iterations to schedule. */
    int runs = 10;
    /** Background inference processes contending for the DSP. */
    int dspLoadProcesses = 0;
    /** Background inference processes contending for the CPU. */
    int cpuLoadProcesses = 0;
    /** Streaming camera capture (depth-1 buffer) instead of on-demand. */
    bool streaming = false;
    /** CPU threads for the inference runtime. */
    int threads = 4;
    /** Enable the Section III-D driver instrumentation probe. */
    bool instrumentation = false;
    /**
     * Arm the seeded fault injector (FaultConfig::fuzzDefaults()).
     * Never sampled — only `aitax_cli verify --faults` sets it, so the
     * plain fuzz corpus and the goldens are untouched.
     */
    bool faults = false;
    /** Root seed of the simulated system. */
    std::uint64_t seed = 1;

    /** Filesystem-safe identifier (also the golden file stem). */
    std::string label() const;

    /** One human-readable description line. */
    std::string describe() const;
};

/**
 * True if the combination is runnable: the model must support the
 * requested format/framework (Table I support matrix) and the SNPE
 * path has no transformer kernels.
 */
bool scenarioValid(const Scenario &s);

/**
 * Sample a random valid scenario (rejection sampling over the zoo,
 * the Table II chipsets, frameworks, harness modes and background
 * load levels).
 */
Scenario sampleScenario(sim::RandomStream &rng);

/**
 * The deterministic fuzz scenario @p index for @p master_seed.
 * fuzzScenario(s, i) is a pure function — the replay contract.
 */
Scenario fuzzScenario(std::uint64_t master_seed, int index);

/** The replay command for fuzz scenario @p index of @p master_seed. */
std::string replayCommand(std::uint64_t master_seed, int index);

/** Everything a scenario run produces that checks may need. */
struct ScenarioResult
{
    core::TaxReport report;
    std::vector<soc::FastRpcBreakdown> rpcLog;
    /** Full chrome://tracing JSON of the run (determinism witness). */
    std::string chromeTraceJson;
    /** Simulated time at quiescence. */
    sim::TimeNs endTimeNs = 0;
    /** Total energy over the run. */
    double energyMj = 0.0;
    /** Thermal clock multiplier at the end of the run, in (0, 1]. */
    double thermalSpeedFactor = 1.0;
    /** Background inferences completed across all load processes. */
    std::int64_t backgroundInferences = 0;
    /** Streaming-capture consumption witnesses (empty when off). */
    std::vector<app::FrameConsume> frameLog;
    /** Fault-injection tallies (all zero when faults are unarmed). */
    faults::FaultStats faultStats;
    /** Simulation events executed — campaign throughput numerator. */
    std::uint64_t eventsExecuted = 0;
    /** Fast-engine front-cache hits (0 under Reference). */
    std::uint64_t frontCacheHits = 0;
};

/** Which ScenarioResult fields a run fills in. */
enum class Outputs
{
    /** Everything, including rpcLog, frameLog and chromeTraceJson. */
    All,
    /**
     * Everything except rpcLog, frameLog and chromeTraceJson, which
     * stay empty: the Chrome-trace serialization dominates a short
     * run, and callers that read only the report skip it.
     */
    Summary,
};

/**
 * Whether a scenario may use the warm-up prefix snapshot cache, and if
 * not, why. Every CLI-benchmark run qualifies — including streaming
 * and background-load configurations: the warm-up prefix is quiet by
 * construction (background loops start only after the warm-up
 * completes, and streaming capture draws its arrival phase at
 * application construction, not during warm-up events), so the prefix
 * is a pure function of the cache key. The app-mode harnesses stay
 * ineligible because their interference interleaves with the warm-up.
 * Faulted runs stay eligible — the fault flag is part of the cache
 * key, and a snapshot is only applied when every emergency in the
 * run's own plan fires after the snapshot.
 */
enum class SnapshotUse
{
    Eligible,
    IneligibleMode, ///< harness mode schedules warm-up interference
};

SnapshotUse classifySnapshotUse(const Scenario &s);

/**
 * Canonical warm-up snapshot cache key (keying discipline of
 * models::cachedGraph): every scenario field that can influence the
 * post-warm-up state is in the key. The seed and run count are
 * deliberately absent — the warm-up prefix is seed-independent (only
 * the fixed-seed load-balance RNG draws before the first frame) and
 * run-count-independent (init work does not depend on n) — which is
 * exactly what makes the cache pay off across a fuzz corpus.
 */
std::string snapshotKey(const Scenario &s);

/**
 * Execute one scenario: build the platform, run the pipeline with any
 * configured background load, and collect the report plus the
 * witnesses @p outputs asks for. This is the only code that runs a
 * Scenario — the verify tier, the paper harnesses and the campaign
 * workers all come through here.
 *
 * Fast runs the skip-ahead engine and memoizes the warm-up of
 * snapshot-eligible scenarios; Reference runs the heap-only loop and
 * never memoizes (the differential-test hook). Both produce
 * byte-identical results.
 */
ScenarioResult runScenario(const Scenario &s,
                           sim::EngineMode engine = sim::EngineMode::Fast,
                           Outputs outputs = Outputs::All);

/**
 * The calling thread's scenario arena: runScenario() bump-allocates
 * all per-run state (SocSystem, Application, tasks, background loops,
 * the fault injector) from it and resets it as the run ends, so
 * back-to-back runs on one thread — sweep workers, the fuzz loop —
 * reuse a single coalesced block with zero heap traffic. Exposed for
 * the allocation-regression test and --stats reporting.
 */
sim::Arena &scenarioArena();

} // namespace aitax::verify

#endif // AITAX_VERIFY_SCENARIO_H
