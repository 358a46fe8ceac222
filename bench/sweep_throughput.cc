/**
 * @file
 * Sweep-throughput benchmark: the repo's wall-clock perf trajectory.
 *
 * Runs a fixed scenario matrix (models x frameworks x harness modes x
 * chipsets x seeds) serially on the Fast engine, then on the sweep
 * pool with the Fast and with the Reference engine, and emits a
 * machine-readable BENCH_sweep.json with scenarios/sec, the events/sec
 * trajectory across the three passes, p50 per-scenario wall time, the
 * parallel speedup, and the machine-normalized fast-vs-reference
 * engine speedup. Later PRs regress against these numbers (see
 * docs/PERFORMANCE.md).
 *
 * A pool pass over the matrix takes a few hundredths of a second, too
 * short to time once. So each engine is timed in samples: a sample
 * repeats the pass until it has run for at least a second and reads
 * the mean time per pass; each engine takes the min of three samples,
 * the two engines alternating, and reports its samples' spread.
 *
 * --gate FILE turns the run into a CI regression gate: FILE is a
 * previously committed BENCH_sweep.json (bench/BENCH_baseline.json in
 * CI) and the run fails if the measured fast-vs-reference speedup
 * falls more than 10% below the baseline. The gate compares engine
 * ratios, not wall-clock, so it is stable across machine speeds.
 *
 * After the in-process passes the harness runs the matrix as a
 * multiprocess *campaign* (src/sweep/campaign.h) at --shards 1/2/4,
 * re-exec'ing itself in a hidden `--serve` worker mode, and records
 * the per-shard scaling rows plus the 4-vs-1 throughput ratio. Each
 * worker rebuilds the matrix from the campaign spec
 * ("corpus=bench scenarios=N runs=N ..."). The campaign corpus is
 * sized so that every one of 4 shards gets at least 4 chunks and the
 * 1-shard campaign lasts at least a second. The campaign aggregate
 * must be byte-identical across every shard count (enforced
 * unconditionally, like the checksum match); with --gate on a host
 * with >= 4 cores the 4-shard campaign must also be > 1.5x the
 * 1-shard throughput.
 *
 * Usage: sweep_throughput [--quick] [--scenarios N] [--runs N]
 *                         [--jobs N] [--out FILE] [--gate FILE]
 *        sweep_throughput --serve [--jobs N]               (worker)
 */

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <limits>
#include <memory>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "bench/bench_common.h"
#include "stats/numfmt.h"
#include "sweep/campaign.h"

namespace {

using namespace aitax;
using Clock = std::chrono::steady_clock;

double
secondsSince(Clock::time_point start)
{
    return std::chrono::duration<double>(Clock::now() - start).count();
}

/** Valid (model, dtype, framework) points; modes/socs/seeds cycle. */
struct Combo
{
    const char *model;
    tensor::DType dtype;
    app::FrameworkKind fw;
};

std::vector<verify::Scenario>
buildMatrix(int scenarios, int runs)
{
    static const Combo kCombos[] = {
        {"mobilenet_v1", tensor::DType::Float32,
         app::FrameworkKind::TfliteCpu},
        {"mobilenet_v1", tensor::DType::UInt8,
         app::FrameworkKind::TfliteHexagon},
        {"efficientnet_lite0", tensor::DType::UInt8,
         app::FrameworkKind::TfliteNnapi},
        {"squeezenet", tensor::DType::Float32,
         app::FrameworkKind::TfliteCpu},
        {"inception_v3", tensor::DType::Float32,
         app::FrameworkKind::TfliteGpu},
        {"mobilenet_v1", tensor::DType::UInt8,
         app::FrameworkKind::SnpeDsp},
        {"posenet", tensor::DType::Float32,
         app::FrameworkKind::TfliteCpu},
        {"ssd_mobilenet_v2", tensor::DType::UInt8,
         app::FrameworkKind::TfliteNnapi},
    };
    static const app::HarnessMode kModes[] = {
        app::HarnessMode::CliBenchmark,
        app::HarnessMode::BenchmarkApp,
        app::HarnessMode::AndroidApp,
    };
    static const char *kSocs[] = {
        "Snapdragon 835",
        "Snapdragon 845",
        "Snapdragon 855",
        "Snapdragon 865",
    };

    std::vector<verify::Scenario> specs;
    specs.reserve(static_cast<std::size_t>(scenarios));
    for (int i = 0; i < scenarios; ++i) {
        const Combo &c = kCombos[static_cast<std::size_t>(i) %
                                 std::size(kCombos)];
        verify::Scenario spec = bench::benchScenario();
        spec.modelId = c.model;
        spec.dtype = c.dtype;
        spec.framework = c.fw;
        spec.mode = kModes[static_cast<std::size_t>(i / 2) %
                           std::size(kModes)];
        spec.socName = kSocs[static_cast<std::size_t>(i / 3) %
                             std::size(kSocs)];
        // Every fourth row uses streaming capture; where that lands on
        // a CliBenchmark row it exercises the fork-stream snapshot
        // path (warm-up memoized despite the post-warm-up divergence).
        spec.streaming = (i % 4 == 0);
        spec.runs = runs;
        spec.seed = 1000 + static_cast<std::uint64_t>(i);
        specs.push_back(std::move(spec));
    }
    return specs;
}

/** One matrix scenario, reading only what the passes below use. */
verify::ScenarioResult
runOne(const verify::Scenario &s, sim::EngineMode engine)
{
    return verify::runScenario(s, engine, verify::Outputs::Summary);
}

/** Order-independent fingerprint that every pass must reproduce. */
double
checksum(const std::vector<verify::ScenarioResult> &results)
{
    double sum = 0.0;
    for (const auto &r : results)
        sum += r.report.endToEndMeanMs();
    return sum;
}

std::uint64_t
eventsOf(const std::vector<verify::ScenarioResult> &results)
{
    std::uint64_t events = 0;
    for (const auto &r : results)
        events += r.eventsExecuted;
    return events;
}

/**
 * Pull a named number out of a baseline BENCH_sweep.json. The files
 * are flat and emitted by this binary, so a key scan is sufficient —
 * no JSON parser in the tree. Returns NaN when the key is absent.
 */
double
baselineNumber(const std::string &json, const char *key)
{
    const std::string needle = std::string("\"") + key + "\"";
    const auto at = json.find(needle);
    if (at == std::string::npos)
        return std::numeric_limits<double>::quiet_NaN();
    const auto colon = json.find(':', at + needle.size());
    if (colon == std::string::npos)
        return std::numeric_limits<double>::quiet_NaN();
    return std::strtod(json.c_str() + colon + 1, nullptr);
}

/** ScenarioFn over the bench matrix of the given dimensions. */
sweep::ScenarioFn
benchScenarioFn(int scenarios, int runs)
{
    auto specs = std::make_shared<std::vector<verify::Scenario>>(
        buildMatrix(scenarios, runs));
    return [specs](int index) {
        const verify::ScenarioResult r =
            runOne((*specs)[static_cast<std::size_t>(index)],
                   sim::EngineMode::Fast);
        sweep::ScenarioOutcome o;
        o.e2eMeanMs = r.report.endToEndMeanMs();
        o.events = r.eventsExecuted;
        return o;
    };
}

/**
 * Worker-side corpus addressing for the bench matrix: resolve a
 * "corpus=bench scenarios=N runs=N ..." campaign spec into the exact
 * corpus the coordinator is sharding, rebuilding the matrix locally.
 */
sweep::SpecResolver
benchSpecResolver()
{
    return [](const std::string &spec,
              std::string *error) -> sweep::ScenarioFn {
        std::string corpus;
        int scenarios = 0;
        int runs = 0;
        for (const auto &[key, val] : sweep::splitSpec(spec)) {
            if (key == "corpus")
                corpus = val;
            else if ((key == "scenarios" &&
                      !sweep::parseSpecNumber(key, val, scenarios, error)) ||
                     (key == "runs" &&
                      !sweep::parseSpecNumber(key, val, runs, error)))
                return {};
            // chunk/engine and unknown keys: coordinator-side concerns.
        }
        if (corpus != "bench") {
            *error = "this worker only serves corpus=bench (got \"" +
                     corpus + "\")";
            return {};
        }
        if (scenarios <= 0 || runs <= 0) {
            *error = "corpus=bench needs scenarios>0 and runs>0";
            return {};
        }
        return benchScenarioFn(scenarios, runs);
    };
}

/**
 * Hidden worker mode: serve matrix scenarios over the campaign's
 * stdin/stdout protocol. The coordinator (the campaign passes below)
 * re-execs this binary with --serve, and the spec handshake resolves
 * the exact corpus the coordinator is sharding from its identity line.
 */
/** The whole number @p text, or a usage error (exit 2) naming @p flag. */
int
wholeFlag(const std::string &flag, const char *text)
{
    int value = 0;
    if (!stats::parseWhole(text, value)) {
        std::fprintf(stderr, "sweep_throughput: %s needs a whole number\n",
                     flag.c_str());
        std::exit(2);
    }
    return value;
}

int
serveMain(int argc, char **argv)
{
    sweep::WorkerOptions opts;
    opts.jobs = 1;
    for (int i = 2; i < argc; ++i) {
        const std::string arg = argv[i];
        auto next = [&]() -> const char * {
            if (i + 1 >= argc)
                std::exit(2);
            return argv[++i];
        };
        if (arg == "--jobs")
            opts.jobs = wholeFlag(arg, next());
        else if (arg == "--exit-after")
            opts.exitAfterRanges = wholeFlag(arg, next());
        else
            std::exit(2);
    }
    return sweep::runWorker(opts, {}, benchSpecResolver());
}

/** A sample lasts at least this long (engine passes, campaigns). */
constexpr double kMinSampleS = 1.0;

/** Campaign work unit, and the chunks each of 4 shards must get. */
constexpr int kCampaignChunk = 32;
constexpr int kChunksPerShard = 4;

/** (max - min) / min of @p samples: how far apart the samples read. */
double
spreadOf(const std::vector<double> &samples)
{
    const auto [lo, hi] =
        std::minmax_element(samples.begin(), samples.end());
    return *lo > 0.0 ? (*hi - *lo) / *lo : 0.0;
}

/** One shard-count row of the campaign scaling curve. */
struct CampaignRow
{
    int shards = 0;
    double wall_s = std::numeric_limits<double>::infinity();
    double spread = 0.0; ///< of the reps' wall times
    double events_per_sec = 0.0;
    std::string report; ///< deterministic aggregate JSON
    bool ok = false;    ///< every rep ran and reported the same bytes
};

/**
 * Run the first @p scenarios matrix scenarios as a pipe campaign over
 * @p shards workers (each --jobs 1, so the row isolates process-level
 * scaling), min of 2 reps.
 */
CampaignRow
campaignRow(const std::string &self_exe, int shards, int scenarios,
            int runs)
{
    constexpr int kCampaignReps = 2;
    sweep::CampaignConfig ccfg;
    ccfg.scenarios = scenarios;
    ccfg.chunk = kCampaignChunk;
    ccfg.shards = shards;
    ccfg.identity = "corpus=bench scenarios=" + std::to_string(scenarios) +
                    " runs=" + std::to_string(runs) + " chunk=" +
                    std::to_string(kCampaignChunk) + " engine=fast";
    ccfg.corpusSpec = ccfg.identity;
    ccfg.workerCmd = {self_exe, "--serve", "--jobs", "1"};
    CampaignRow row;
    row.shards = shards;
    std::vector<double> walls;
    std::uint64_t events = 0;
    for (int rep = 0; rep < kCampaignReps; ++rep) {
        const sweep::CampaignSummary sum = sweep::runCampaign(ccfg);
        if (sum.status != sweep::CampaignStatus::Ok) {
            std::fprintf(stderr, "campaign (shards=%d): %s\n", shards,
                         sum.error.c_str());
            return row;
        }
        const std::string report =
            sweep::campaignReportJson(ccfg.identity, sum.aggregate);
        if (!row.report.empty() && row.report != report)
            return row;
        row.report = report;
        walls.push_back(sum.wallSeconds);
        events = sum.aggregate.events;
    }
    row.wall_s = *std::min_element(walls.begin(), walls.end());
    row.spread = spreadOf(walls);
    row.events_per_sec =
        row.wall_s > 0.0 ? static_cast<double>(events) / row.wall_s : 0.0;
    row.ok = true;
    return row;
}

} // namespace

int
main(int argc, char **argv)
{
    if (argc > 1 && std::strcmp(argv[1], "--serve") == 0)
        return serveMain(argc, argv);

    int scenarios = 64;
    int runs = 100;
    int jobs = 0;
    std::string out_path = "BENCH_sweep.json";
    std::string gate_path;

    for (int i = 1; i < argc; ++i) {
        const std::string arg = argv[i];
        auto next = [&]() -> const char * {
            if (i + 1 >= argc) {
                std::fprintf(stderr, "%s needs a value\n", arg.c_str());
                std::exit(2);
            }
            return argv[++i];
        };
        if (arg == "--quick") {
            // 256 scenarios actually stretch the pool and the campaign
            // sharding below (16 finished before the pool's shared
            // queue or the chunk dispatcher had anything to balance).
            scenarios = 256;
            runs = 30;
        } else if (arg == "--scenarios") {
            scenarios = wholeFlag(arg, next());
        } else if (arg == "--runs") {
            runs = wholeFlag(arg, next());
        } else if (arg == "--jobs") {
            jobs = wholeFlag(arg, next());
        } else if (arg == "--out") {
            out_path = next();
        } else if (arg == "--gate") {
            gate_path = next();
        } else {
            std::fprintf(stderr,
                         "usage: sweep_throughput [--quick] "
                         "[--scenarios N] [--runs N] [--jobs N] "
                         "[--out FILE] [--gate FILE]\n");
            return 2;
        }
    }
    if (scenarios <= 0 || runs <= 0)
        return 2;
    jobs = sweep::effectiveJobs(jobs);

    const auto specs = buildMatrix(scenarios, runs);

    // Warm the process-wide graph cache outside the timed region so
    // both passes see the same steady-state cost per scenario.
    for (const auto &s : specs)
        (void)models::cachedGraph(*models::findModel(s.modelId), s.dtype);

    std::printf("sweep_throughput: %d scenarios x %d runs, --jobs %d\n",
                scenarios, runs, jobs);

    // --- serial pass, Fast engine (also collects per-scenario wall
    // times, the events/sec denominator and the front-cache hit
    // counter) --------------------------------------------------------
    sweep::snapshotCacheResetStats();
    std::vector<double> scenario_ms(specs.size());
    const auto serial_start = Clock::now();
    std::vector<verify::ScenarioResult> serial_results;
    serial_results.reserve(specs.size());
    std::uint64_t front_cache_hits = 0;
    for (std::size_t i = 0; i < specs.size(); ++i) {
        const auto t0 = Clock::now();
        serial_results.push_back(runOne(specs[i], sim::EngineMode::Fast));
        scenario_ms[i] = secondsSince(t0) * 1e3;
        front_cache_hits += serial_results.back().frontCacheHits;
    }
    const double serial_s = secondsSince(serial_start);
    const std::uint64_t total_events = eventsOf(serial_results);

    // --- parallel passes, Fast and Reference engine -----------------
    // Same matrix on the same pool with both engines: the ratio of
    // their pass times is the machine-normalized engine speedup the CI
    // gate regresses against, and the checksum + event-count match is
    // the cheap always-on face of the differential contract (the
    // byte-exact version lives in tests/test_differential.cc).
    constexpr int kSamples = 3;
    sweep::SweepRunner runner(jobs);
    std::vector<verify::ScenarioResult> parallel_results;
    std::vector<verify::ScenarioResult> reference_results;
    // One sample: passes back to back for at least kMinSampleS; reads
    // the mean time per pass, and keeps the first pass's results.
    auto sample = [&](sim::EngineMode engine,
                      std::vector<verify::ScenarioResult> &keep) {
        int passes = 0;
        const auto start = Clock::now();
        double elapsed = 0.0;
        do {
            auto results = runner.map<verify::ScenarioResult>(
                specs.size(),
                [&](std::size_t i) { return runOne(specs[i], engine); });
            if (keep.empty())
                keep = std::move(results);
            ++passes;
            elapsed = secondsSince(start);
        } while (elapsed < kMinSampleS);
        return elapsed / passes;
    };
    std::vector<double> fast_samples;
    std::vector<double> reference_samples;
    for (int i = 0; i < kSamples; ++i) {
        fast_samples.push_back(
            sample(sim::EngineMode::Fast, parallel_results));
        reference_samples.push_back(
            sample(sim::EngineMode::Reference, reference_results));
    }
    const double parallel_s =
        *std::min_element(fast_samples.begin(), fast_samples.end());
    const double reference_s = *std::min_element(
        reference_samples.begin(), reference_samples.end());
    const double parallel_spread = spreadOf(fast_samples);
    const double reference_spread = spreadOf(reference_samples);

    const double serial_sum = checksum(serial_results);
    const bool checksum_match = serial_sum == checksum(parallel_results);
    const bool engine_match =
        serial_sum == checksum(reference_results) &&
        total_events == eventsOf(reference_results);

    std::sort(scenario_ms.begin(), scenario_ms.end());
    const double p50 = scenario_ms[scenario_ms.size() / 2];
    const double speedup = parallel_s > 0.0 ? serial_s / parallel_s : 0.0;
    const double per_sec =
        parallel_s > 0.0 ? static_cast<double>(scenarios) / parallel_s
                         : 0.0;
    const double engine_speedup =
        parallel_s > 0.0 ? reference_s / parallel_s : 0.0;
    auto events_per_sec = [total_events](double wall_s) {
        return wall_s > 0.0
                   ? static_cast<double>(total_events) / wall_s
                   : 0.0;
    };

    std::printf("  serial    %.3f s  (p50 scenario %.2f ms, %.3g "
                "events/s)\n",
                serial_s, p50, events_per_sec(serial_s));
    std::printf("  parallel  %.3f s  (%.2f scenarios/s, %.3g events/s, "
                "speedup %.2fx; min of %d samples, spread %.1f%%)\n",
                parallel_s, per_sec, events_per_sec(parallel_s),
                speedup, kSamples, 100.0 * parallel_spread);
    std::printf("  reference %.3f s  (%.3g events/s, fast engine "
                "%.2fx; min of %d samples, spread %.1f%%)\n",
                reference_s, events_per_sec(reference_s),
                engine_speedup, kSamples, 100.0 * reference_spread);
    const sweep::SnapshotCacheStats cache_stats =
        sweep::snapshotCacheStatsNow();

    // --- campaign passes: process-sharded fleet scaling -------------
    // The matrix as a multiprocess campaign at 1/2/4 worker shards. The
    // aggregate report must be byte-identical across every shard count
    // — the determinism contract one level above the thread pool. The
    // corpus gives each of 4 shards kChunksPerShard chunks, and grows
    // until the 1-shard campaign lasts kMinSampleS.
    const std::string self_exe = sweep::selfExecutablePath(argv[0]);
    const int min_scenarios = 4 * kChunksPerShard * kCampaignChunk;
    int campaign_scenarios = std::max(scenarios, min_scenarios);
    std::vector<CampaignRow> campaign_rows;
    CampaignRow one = campaignRow(self_exe, 1, campaign_scenarios, runs);
    while (one.ok && one.wall_s < kMinSampleS) {
        const double grow = 1.25 * kMinSampleS / std::max(one.wall_s, 1e-3);
        const int chunks =
            static_cast<int>(std::ceil(campaign_scenarios * grow /
                                       kCampaignChunk));
        campaign_scenarios = chunks * kCampaignChunk;
        one = campaignRow(self_exe, 1, campaign_scenarios, runs);
    }
    campaign_rows.push_back(std::move(one));
    for (const int shards : {2, 4}) {
        if (!campaign_rows.back().ok)
            break;
        campaign_rows.push_back(
            campaignRow(self_exe, shards, campaign_scenarios, runs));
    }
    bool campaign_match = true;
    for (const CampaignRow &row : campaign_rows) {
        campaign_match = campaign_match && row.ok &&
                         row.report == campaign_rows.front().report;
        if (row.ok)
            std::printf("  campaign  shards=%d  %.3f s  (%.3g events/s, "
                        "spread %.1f%%)\n",
                        row.shards, row.wall_s, row.events_per_sec,
                        100.0 * row.spread);
    }
    campaign_match = campaign_match && campaign_rows.size() == 3;
    const double shards4_speedup =
        campaign_match && campaign_rows.front().events_per_sec > 0.0
            ? campaign_rows.back().events_per_sec /
                  campaign_rows.front().events_per_sec
            : 0.0;
    std::printf("  campaign: %d scenarios, aggregates %s across shard "
                "counts, 4-vs-1 shard speedup %.2fx\n",
                campaign_scenarios,
                campaign_match ? "byte-identical" : "MISMATCH",
                shards4_speedup);

    std::printf("  determinism: serial/parallel checksums %s, "
                "fast/reference engines %s\n",
                checksum_match ? "match" : "MISMATCH",
                engine_match ? "match" : "MISMATCH");
    std::printf("  front-cache hits %llu; warm-up cache %llu hits / "
                "%llu misses / %llu stores\n",
                static_cast<unsigned long long>(front_cache_hits),
                static_cast<unsigned long long>(cache_stats.hits),
                static_cast<unsigned long long>(cache_stats.misses),
                static_cast<unsigned long long>(cache_stats.stores));

    // --- CI regression gate -----------------------------------------
    bool gate_ok = true;
    if (!gate_path.empty()) {
        std::ifstream gate_in(gate_path);
        if (!gate_in) {
            std::fprintf(stderr, "cannot open gate baseline %s\n",
                         gate_path.c_str());
            return 1;
        }
        std::ostringstream ss;
        ss << gate_in.rdbuf();
        const double baseline =
            baselineNumber(ss.str(), "fast_vs_reference_speedup");
        if (!(baseline > 0.0)) {
            std::fprintf(stderr,
                         "gate baseline %s has no usable "
                         "fast_vs_reference_speedup\n",
                         gate_path.c_str());
            return 1;
        }
        const double floor = baseline * 0.9;
        gate_ok = engine_speedup >= floor;
        std::printf("  gate: engine speedup %.2fx vs baseline %.2fx "
                    "(floor %.2fx; spread fast %.1f%%, reference "
                    "%.1f%%) -> %s\n",
                    engine_speedup, baseline, floor,
                    100.0 * parallel_spread, 100.0 * reference_spread,
                    gate_ok ? "ok" : "REGRESSION");

        // Warm-up memoization must actually engage: a matrix this
        // size always repeats CLI-benchmark warm-up keys across the
        // serial pass and the timed reps, so zero hits means the
        // snapshot path silently stopped firing.
        if (cache_stats.hits == 0) {
            gate_ok = false;
            std::printf("  gate: warm-up snapshot cache recorded zero "
                        "hits -> REGRESSION\n");
        }

        // Campaign scaling: process sharding must actually buy
        // throughput. Only enforced where the host has the cores to
        // show it (CI runners do; a 1-core calibration box cannot).
        if (std::thread::hardware_concurrency() >= 4) {
            const bool scaling_ok = shards4_speedup > 1.5;
            std::printf("  gate: campaign 4-vs-1 shard speedup %.2fx "
                        "(floor 1.50x; spread 1 shard %.1f%%, 4 shards "
                        "%.1f%%) -> %s\n",
                        shards4_speedup,
                        100.0 * campaign_rows.front().spread,
                        100.0 * campaign_rows.back().spread,
                        scaling_ok ? "ok" : "REGRESSION");
            gate_ok = gate_ok && scaling_ok;
        } else {
            std::printf("  gate: campaign shard-scaling floor skipped "
                        "(host has < 4 cores)\n");
        }
    }

    std::ofstream out(out_path);
    if (!out) {
        std::fprintf(stderr, "cannot open %s\n", out_path.c_str());
        return 1;
    }
    out << "{\n"
        << "  \"scenarios\": " << scenarios << ",\n"
        << "  \"runs_per_scenario\": " << runs << ",\n"
        << "  \"jobs\": " << jobs << ",\n";
    char buf[64];
    std::snprintf(buf, sizeof(buf), "%.6f", serial_s);
    out << "  \"serial_s\": " << buf << ",\n";
    std::snprintf(buf, sizeof(buf), "%.6f", parallel_s);
    out << "  \"parallel_s\": " << buf << ",\n";
    std::snprintf(buf, sizeof(buf), "%.3f", parallel_spread);
    out << "  \"parallel_spread\": " << buf << ",\n";
    std::snprintf(buf, sizeof(buf), "%.6f", reference_s);
    out << "  \"reference_parallel_s\": " << buf << ",\n";
    std::snprintf(buf, sizeof(buf), "%.3f", reference_spread);
    out << "  \"reference_parallel_spread\": " << buf << ",\n";
    std::snprintf(buf, sizeof(buf), "%.3f", speedup);
    out << "  \"speedup\": " << buf << ",\n";
    std::snprintf(buf, sizeof(buf), "%.3f", engine_speedup);
    out << "  \"fast_vs_reference_speedup\": " << buf << ",\n";
    std::snprintf(buf, sizeof(buf), "%.3f", per_sec);
    out << "  \"scenarios_per_sec\": " << buf << ",\n";
    out << "  \"events_executed\": " << total_events << ",\n";
    // Events/sec trajectory across the three passes: reference pool ->
    // fast serial -> fast pool. Every pass executes the same events.
    out << "  \"events_per_sec\": {\n";
    std::snprintf(buf, sizeof(buf), "%.1f",
                  events_per_sec(reference_s));
    out << "    \"reference_parallel\": " << buf << ",\n";
    std::snprintf(buf, sizeof(buf), "%.1f", events_per_sec(serial_s));
    out << "    \"serial\": " << buf << ",\n";
    std::snprintf(buf, sizeof(buf), "%.1f", events_per_sec(parallel_s));
    out << "    \"parallel\": " << buf << "\n  },\n";
    std::snprintf(buf, sizeof(buf), "%.3f", p50);
    out << "  \"p50_scenario_ms\": " << buf << ",\n";
    out << "  \"front_cache_hits\": " << front_cache_hits << ",\n";
    // Warm-up snapshot cache counters across all passes (reset at the
    // start of the serial pass): the serial pass stores, the timed
    // reps hit.
    out << "  \"snapshot_cache\": {\n"
        << "    \"hits\": " << cache_stats.hits << ",\n"
        << "    \"misses\": " << cache_stats.misses << ",\n"
        << "    \"stores\": " << cache_stats.stores << ",\n"
        << "    \"race_discards\": " << cache_stats.raceDiscards
        << "\n  },\n";
    out << "  \"checksum_match\": "
        << (checksum_match ? "true" : "false") << ",\n";
    out << "  \"engine_checksum_match\": "
        << (engine_match ? "true" : "false") << ",\n";
    // Per-shard-count campaign rows: the fleet-scaling curve.
    out << "  \"campaign\": {\n"
        << "    \"transport\": \"pipe\",\n"
        << "    \"scenarios\": " << campaign_scenarios << ",\n"
        << "    \"chunk\": " << kCampaignChunk << ",\n"
        << "    \"byte_identical_across_shards\": "
        << (campaign_match ? "true" : "false") << ",\n";
    std::snprintf(buf, sizeof(buf), "%.3f", shards4_speedup);
    out << "    \"shards4_speedup\": " << buf << ",\n"
        << "    \"rows\": [\n";
    for (std::size_t i = 0; i < campaign_rows.size(); ++i) {
        const CampaignRow &row = campaign_rows[i];
        std::snprintf(buf, sizeof(buf), "%.6f", row.wall_s);
        out << "      {\"shards\": " << row.shards
            << ", \"wall_s\": " << buf;
        std::snprintf(buf, sizeof(buf), "%.3f", row.spread);
        out << ", \"spread\": " << buf;
        std::snprintf(buf, sizeof(buf), "%.1f", row.events_per_sec);
        out << ", \"events_per_sec\": " << buf << "}"
            << (i + 1 < campaign_rows.size() ? "," : "") << "\n";
    }
    out << "    ]\n  }\n"
        << "}\n";
    out.close();
    if (!out) {
        std::fprintf(stderr, "cannot write %s\n", out_path.c_str());
        return 1;
    }
    std::printf("  wrote %s\n", out_path.c_str());

    return (checksum_match && engine_match && campaign_match && gate_ok)
               ? 0
               : 1;
}
