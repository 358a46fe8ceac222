/**
 * @file
 * Sweep-throughput benchmark: the repo's wall-clock perf trajectory.
 *
 * Runs a fixed scenario matrix (models x frameworks x harness modes x
 * chipsets x seeds) three times — serially on the Fast engine, on the
 * sweep pool with the Fast engine, and on the pool with
 * the Reference engine — and emits a machine-readable BENCH_sweep.json
 * with scenarios/sec, the events/sec trajectory across the three
 * passes, p50 per-scenario wall time, the parallel speedup, and the
 * machine-normalized fast-vs-reference engine speedup. Later PRs
 * regress against these numbers (see docs/PERFORMANCE.md).
 *
 * --gate FILE turns the run into a CI regression gate: FILE is a
 * previously committed BENCH_sweep.json (bench/BENCH_baseline.json in
 * CI) and the run fails if the measured fast-vs-reference speedup
 * falls more than 10% below the baseline. The gate compares engine
 * ratios, not wall-clock, so it is stable across machine speeds.
 *
 * After the in-process passes the harness re-runs the matrix as a
 * multiprocess *campaign* (src/sweep/campaign.h) at --shards 1/2/4,
 * re-exec'ing itself in a hidden `--serve` worker mode, and records
 * the per-shard scaling rows plus the 4-vs-1 throughput ratio. Each
 * worker rebuilds the matrix from the campaign spec
 * ("corpus=bench scenarios=N runs=N ..."). The campaign aggregate must
 * be byte-identical across every shard count (enforced
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

/** One shard-count row of the campaign scaling curve. */
struct CampaignRow
{
    int shards = 0;
    double wall_s = std::numeric_limits<double>::infinity();
    double events_per_sec = 0.0;
    std::string report; ///< deterministic aggregate JSON
};

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

    // The timed parallel passes repeat kTimedReps times and keep the
    // best wall time: the whole matrix finishes in fractions of a
    // second, so a single sample is at the mercy of scheduler noise —
    // and the gate regresses on the fast/reference *ratio*, which
    // squares that noise. Min-of-N is the usual fix.
    constexpr int kTimedReps = 3;
    sweep::SweepRunner runner(jobs);
    auto timed_pass = [&](sim::EngineMode engine, double &best_s) {
        std::vector<verify::ScenarioResult> first;
        best_s = std::numeric_limits<double>::infinity();
        for (int rep = 0; rep < kTimedReps; ++rep) {
            const auto start = Clock::now();
            auto results = runner.map<verify::ScenarioResult>(
                specs.size(),
                [&](std::size_t i) { return runOne(specs[i], engine); });
            best_s = std::min(best_s, secondsSince(start));
            if (rep == 0)
                first = std::move(results);
        }
        return first;
    };

    // --- parallel pass, Fast engine ---------------------------------
    double parallel_s = 0.0;
    const auto parallel_results =
        timed_pass(sim::EngineMode::Fast, parallel_s);

    // --- parallel pass, Reference engine ----------------------------
    // Same matrix on the same pool with the pre-fast-path engine: the
    // wall-clock ratio is the machine-normalized engine speedup the CI
    // gate regresses against, and the checksum + event-count match is
    // the cheap always-on face of the differential contract (the
    // byte-exact version lives in tests/test_differential.cc).
    double reference_s = 0.0;
    const auto reference_results =
        timed_pass(sim::EngineMode::Reference, reference_s);

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
                "speedup %.2fx)\n",
                parallel_s, per_sec, events_per_sec(parallel_s),
                speedup);
    std::printf("  reference %.3f s  (%.3g events/s, fast engine "
                "%.2fx)\n",
                reference_s, events_per_sec(reference_s),
                engine_speedup);
    const sweep::SnapshotCacheStats cache_stats =
        sweep::snapshotCacheStatsNow();

    // --- campaign passes: process-sharded fleet scaling -------------
    // The same matrix as a multiprocess campaign at 1/2/4 worker
    // shards (each worker --jobs 1, so the row isolates process-level
    // scaling). The aggregate report must be byte-identical across
    // every shard count — the determinism contract one level above the
    // thread pool.
    const std::string self_exe = sweep::selfExecutablePath(argv[0]);
    constexpr int kCampaignShards[] = {1, 2, 4};
    constexpr int kCampaignReps = 2;
    std::vector<CampaignRow> campaign_rows;
    bool campaign_match = true;
    bool campaign_ran = true;
    for (const int shards : kCampaignShards) {
        sweep::CampaignConfig ccfg;
        ccfg.scenarios = scenarios;
        ccfg.chunk = 32;
        ccfg.shards = shards;
        ccfg.identity =
            "corpus=bench scenarios=" + std::to_string(scenarios) +
            " runs=" + std::to_string(runs) + " chunk=32 engine=fast";
        ccfg.corpusSpec = ccfg.identity;
        ccfg.workerCmd = {self_exe, "--serve", "--jobs", "1"};
        CampaignRow row;
        row.shards = shards;
        std::uint64_t campaign_events = 0;
        for (int rep = 0; rep < kCampaignReps && campaign_ran; ++rep) {
            const sweep::CampaignSummary sum = sweep::runCampaign(ccfg);
            if (sum.status != sweep::CampaignStatus::Ok) {
                std::fprintf(stderr, "campaign (shards=%d): %s\n",
                             shards, sum.error.c_str());
                campaign_ran = false;
                break;
            }
            const std::string report = sweep::campaignReportJson(
                ccfg.identity, sum.aggregate);
            if (row.report.empty())
                row.report = report;
            else if (row.report != report)
                campaign_match = false;
            row.wall_s = std::min(row.wall_s, sum.wallSeconds);
            campaign_events = sum.aggregate.events;
        }
        if (!campaign_ran)
            break;
        row.events_per_sec =
            row.wall_s > 0.0
                ? static_cast<double>(campaign_events) / row.wall_s
                : 0.0;
        if (!campaign_rows.empty() &&
            campaign_rows.front().report != row.report)
            campaign_match = false;
        campaign_rows.push_back(std::move(row));
        std::printf("  campaign  shards=%d  %.3f s  (%.3g events/s)\n",
                    shards, campaign_rows.back().wall_s,
                    campaign_rows.back().events_per_sec);
    }
    campaign_match = campaign_match && campaign_ran;
    const double shards4_speedup =
        campaign_rows.size() == std::size(kCampaignShards) &&
                campaign_rows.front().events_per_sec > 0.0
            ? campaign_rows.back().events_per_sec /
                  campaign_rows.front().events_per_sec
            : 0.0;
    std::printf("  campaign: aggregates %s across shard counts, "
                "4-vs-1 shard speedup %.2fx\n",
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
                    "(floor %.2fx) -> %s\n",
                    engine_speedup, baseline, floor,
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
                        "(floor 1.50x) -> %s\n",
                        shards4_speedup,
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
    std::snprintf(buf, sizeof(buf), "%.6f", reference_s);
    out << "  \"reference_parallel_s\": " << buf << ",\n";
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
        << "    \"chunk\": 32,\n"
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
