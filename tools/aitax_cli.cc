/**
 * @file
 * Command-line experiment driver — the repository's equivalent of the
 * TFLite benchmark utility, except it measures the *whole* pipeline.
 *
 * Usage:
 *   aitax_cli [options]
 *     --model <id>           (default mobilenet_v1; "list" to list)
 *     --dtype fp32|int8      (default fp32)
 *     --framework cpu|gpu|hexagon|nnapi|snpe   (default cpu)
 *     --mode cli|bench-app|app                 (default app)
 *     --soc "<name>"         (default "Snapdragon 845")
 *     --runs <n>             (default 500)
 *     --threads <n>          (default 4)
 *     --seed <n>             (default 7)
 *     --instrument           enable driver instrumentation
 *     --pre-on-dsp           offload pre-processing to the DSP
 *     --streaming            buffered (streaming) camera capture
 *     --timeline             print the profiler-style timeline
 *     --energy               print per-domain energy
 *     --stats                print simulator and warm-up-cache counters
 *     --chrome-trace <file>  write a chrome://tracing JSON capture
 *     --faults <spec>        arm the seeded fault injector; <spec> is
 *                            "default", "fuzz", or "key=value,..."
 *                            (see faults/fault_plan.h)
 *
 * Verification subcommand:
 *   aitax_cli verify [options]
 *     --update               rewrite golden snapshots (record mode)
 *     --golden-dir <dir>     snapshot directory (default: tests/golden)
 *     --fuzz <n>             seeded random scenarios to verify (default 5)
 *     --replay <index>       re-run one fuzz scenario verbosely
 *     --seed <n>             master fuzz seed (default 2021)
 *     --jobs <n>             parallel scenario workers (default: all
 *                            cores; output is identical to --jobs 1)
 *     --faults               arm FaultConfig::fuzzDefaults() on every
 *                            fuzz scenario (goldens still run clean)
 *     --engine fast|reference
 *                            pin the simulation engine (default fast).
 *                            Replaying a suspect scenario under both
 *                            engines diffs the fast path against the
 *                            reference loop (docs/PERFORMANCE.md)
 *     --stats                print warm-up snapshot-cache counters
 *                            after the passes (cache efficacy across
 *                            the golden + fuzz corpus)
 *
 * Fleet-scale campaign subcommands (docs/PERFORMANCE.md):
 *   aitax_cli campaign [options]      coordinator: shard a seeded fuzz
 *                                     corpus across worker processes
 *     --scenarios <n>        corpus size (default 256)
 *     --shards <n>           worker processes (default 1)
 *     --jobs <n>             threads per worker (default 1)
 *     --seed <n>             master corpus seed (default 2021)
 *     --chunk <n>            scenarios per dispatch/checkpoint chunk
 *                            (default 32; part of the campaign identity)
 *     --faults               fault-inject every scenario
 *     --engine fast|reference
 *     --checkpoint <file>    resumable manifest of completed chunks
 *     --resume               load completed chunks from --checkpoint
 *     --out <file>           write the deterministic aggregate JSON
 *                            (byte-identical at any shards x jobs
 *                            split, including kill-and-resume)
 *     --stats                print snapshot-cache counters summed
 *                            across all worker processes
 *     --gate <events/sec>    exit 1 if aggregate throughput is lower
 *     --stop-after-chunks <n>  interrupt after n chunks (exit 3)
 *     --kill-worker-after <n>  crash worker 0 on its nth range
 *     --workers host:port,...  dispatch to remote workers over TCP
 *                            instead of forking local processes (one
 *                            session per endpoint; repeat an endpoint
 *                            for several sessions on one daemon).
 *                            Workers resolve the corpus from the
 *                            campaign spec.
 *     --worker-deadline <s>  kill + re-dispatch a worker with no
 *                            protocol activity for s seconds
 *
 *   aitax_cli sweep-serve [--jobs N] [--exit-after N]
 *                                     pipe worker: serve scenario
 *                                     ranges over stdin/stdout; the
 *                                     corpus comes from the
 *                                     coordinator's spec line
 *
 *   aitax_cli serve [--listen PORT] [--bind ADDR] [--jobs N]
 *             [--accept N] [--port-file FILE]
 *                                     fleet worker daemon: accepts any
 *                                     number of concurrent campaigns,
 *                                     one forked session per
 *                                     connection (per-campaign
 *                                     isolation); corpora are resolved
 *                                     from each campaign's spec
 */

#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <iostream>
#include <sstream>
#include <string>

#include "app/pipeline.h"
#include "faults/fault_plan.h"
#include "soc/chipsets.h"
#include "stats/numfmt.h"
#include "sweep/campaign.h"
#include "sweep/serve.h"
#include "sweep/snapshot_cache.h"
#include "sweep/sweep_runner.h"
#include "trace/chrome_trace.h"
#include "trace/render.h"
#include "verify/golden.h"
#include "verify/invariants.h"

#ifndef AITAX_GOLDEN_DIR
#define AITAX_GOLDEN_DIR "tests/golden"
#endif

namespace {

using namespace aitax;

/**
 * Flag values for one subcommand's argv loop: next() returns the
 * argument after argv[i] and advances i; number() parses it with
 * stats::parseWhole, so "64x", "5s" and, for unsigned flags, "-1" are
 * refused. A missing or malformed value calls @p usage, the
 * subcommand's usage error (exit 2).
 */
template <typename Usage>
struct FlagValues
{
    int argc;
    char **argv;
    int &i;
    Usage usage;

    const char *
    next()
    {
        if (i + 1 >= argc)
            usage();
        return argv[++i];
    }

    template <typename T>
    void
    number(T &out)
    {
        if (!stats::parseWhole(next(), out))
            usage();
    }
};

[[noreturn]] void
usage(const char *argv0)
{
    std::fprintf(stderr,
                 "usage: %s [--model ID] [--dtype fp32|int8] "
                 "[--framework cpu|gpu|hexagon|nnapi|snpe] "
                 "[--mode cli|bench-app|app] [--soc NAME] [--runs N] "
                 "[--threads N] [--seed N] [--instrument] "
                 "[--pre-on-dsp] [--streaming] [--faults SPEC] "
                 "[--timeline] [--energy] [--stats] "
                 "[--chrome-trace FILE]\n",
                 argv0);
    std::exit(2);
}

/** Shared --stats footer: the process-wide warm-up snapshot cache. */
void
printSnapshotCacheStats()
{
    const sweep::SnapshotCacheStats s = sweep::snapshotCacheStatsNow();
    std::printf("warm-up snapshot cache: %llu hits, %llu misses, "
                "%llu stores, %llu race discards\n",
                static_cast<unsigned long long>(s.hits),
                static_cast<unsigned long long>(s.misses),
                static_cast<unsigned long long>(s.stores),
                static_cast<unsigned long long>(s.raceDiscards));
}

void
listModels()
{
    for (const auto &m : models::allModels())
        std::printf("%-20s %s (%s)\n", m.id.c_str(),
                    m.displayName.c_str(),
                    std::string(models::taskName(m.task)).c_str());
}

[[noreturn]] void
verifyUsage()
{
    std::fprintf(stderr,
                 "usage: aitax_cli verify [--update] [--golden-dir DIR] "
                 "[--fuzz N] [--replay INDEX] [--seed N] [--jobs N] "
                 "[--faults] [--engine fast|reference] [--stats]\n");
    std::exit(2);
}

/** Golden pass: compare (or rewrite) every committed snapshot. */
int
runGoldenPass(const std::string &golden_dir, bool update, int jobs,
              sim::EngineMode engine)
{
    const auto &scenarios = verify::goldenScenarios();

    // Scenarios are independent simulations: run them on the sweep
    // pool, then compare/report serially in submission order so the
    // output (and any rewritten files) are identical to --jobs 1.
    sweep::SweepRunner runner(jobs);
    const auto snapshots = runner.map<verify::GoldenSnapshot>(
        scenarios.size(), [&](std::size_t i) {
            return verify::snapshot(
                scenarios[i], verify::runScenario(scenarios[i], engine));
        });

    int failures = 0;
    for (std::size_t i = 0; i < scenarios.size(); ++i) {
        const auto &scenario = scenarios[i];
        const auto &actual = snapshots[i];
        const std::string path =
            golden_dir + "/" + verify::goldenFileName(scenario);

        if (update) {
            if (!verify::writeGoldenFile(path, actual)) {
                std::fprintf(stderr, "FAIL cannot write %s\n",
                             path.c_str());
                ++failures;
                continue;
            }
            std::printf("wrote %s\n", path.c_str());
            continue;
        }

        verify::GoldenSnapshot expected;
        std::string error;
        if (!verify::readGoldenFile(path, expected, error)) {
            std::fprintf(stderr, "FAIL %s: %s (run with --update?)\n",
                         scenario.label().c_str(), error.c_str());
            ++failures;
            continue;
        }
        const auto diffs = verify::compare(expected, actual);
        if (diffs.empty()) {
            std::printf("ok   %s\n", scenario.label().c_str());
            continue;
        }
        ++failures;
        std::fprintf(stderr, "FAIL %s\n", scenario.label().c_str());
        for (const auto &d : diffs)
            std::fprintf(stderr,
                         "     %-28s expected %.6g got %.6g "
                         "(rel err %.2f%%)\n",
                         d.metric.c_str(), d.expected, d.actual,
                         d.relError * 100.0);
    }
    return failures;
}

/** Fuzz pass: invariant-check seeded random scenarios. */
int
runFuzzPass(std::uint64_t master_seed, int count, int replay_index,
            int jobs, bool fault_fuzz, sim::EngineMode engine)
{
    const int begin = replay_index >= 0 ? replay_index : 0;
    const int end = replay_index >= 0 ? replay_index + 1 : count;
    const auto n = static_cast<std::size_t>(end - begin);

    struct FuzzOutcome
    {
        verify::Scenario scenario;
        verify::InvariantReport report;
    };
    sweep::SweepRunner runner(jobs);
    const auto outcomes = runner.map<FuzzOutcome>(n, [&](std::size_t k) {
        const int i = begin + static_cast<int>(k);
        FuzzOutcome out;
        out.scenario = verify::fuzzScenario(master_seed, i);
        // Orthogonal axis: the same corpus, fault-injected. Replay of
        // a --faults failure needs --faults on the replay too.
        out.scenario.faults = fault_fuzz;
        out.report = verify::verifyScenario(out.scenario, engine);
        return out;
    });

    int failures = 0;
    for (std::size_t k = 0; k < n; ++k) {
        const int i = begin + static_cast<int>(k);
        const auto &scenario = outcomes[k].scenario;
        const auto &report = outcomes[k].report;
        const bool verbose = replay_index >= 0 || !report.allPassed();
        std::printf("%s fuzz[%d] %s\n",
                    report.allPassed() ? "ok  " : "FAIL", i,
                    scenario.describe().c_str());
        if (verbose) {
            std::ostringstream os;
            report.render(os);
            std::fputs(os.str().c_str(), stdout);
        }
        if (!report.allPassed()) {
            ++failures;
            std::fprintf(stderr, "     replay: %s\n",
                         verify::replayCommand(master_seed, i).c_str());
        }
    }
    return failures;
}

int
verifyMain(int argc, char **argv)
{
    bool update = false;
    std::string golden_dir = AITAX_GOLDEN_DIR;
    int fuzz_count = 5;
    int replay_index = -1;
    std::uint64_t master_seed = 2021;
    int jobs = 0; // 0: default via sweep::effectiveJobs
    bool fault_fuzz = false;
    bool stats = false;
    sim::EngineMode engine = sim::EngineMode::Fast;

    for (int i = 2; i < argc; ++i) {
        const std::string arg = argv[i];
        FlagValues flag{argc, argv, i, verifyUsage};
        if (arg == "--update")
            update = true;
        else if (arg == "--golden-dir")
            golden_dir = flag.next();
        else if (arg == "--fuzz")
            flag.number(fuzz_count);
        else if (arg == "--replay")
            flag.number(replay_index);
        else if (arg == "--seed")
            flag.number(master_seed);
        else if (arg == "--jobs")
            flag.number(jobs);
        else if (arg == "--faults")
            fault_fuzz = true;
        else if (arg == "--stats")
            stats = true;
        else if (arg == "--engine") {
            if (!sim::parseEngineMode(flag.next(), engine))
                verifyUsage();
        } else
            verifyUsage();
    }
    if (fuzz_count < 0 || (replay_index >= 0 && update))
        verifyUsage();

    // Per-invocation counters: everything below this line is this
    // verify run's own cache traffic.
    sweep::snapshotCacheResetStats();

    int failures = 0;
    if (replay_index < 0)
        failures += runGoldenPass(golden_dir, update, jobs, engine);
    if (!update)
        failures += runFuzzPass(master_seed, fuzz_count, replay_index,
                                jobs, fault_fuzz, engine);

    if (stats) {
        std::printf("\n");
        printSnapshotCacheStats();
    }

    if (failures > 0) {
        std::fprintf(stderr, "\nverify: %d failure(s)\n", failures);
        return 1;
    }
    std::printf("\nverify: all checks passed\n");
    return 0;
}

[[noreturn]] void
campaignUsage()
{
    std::fprintf(stderr,
                 "usage: aitax_cli campaign [--scenarios N] [--shards N] "
                 "[--jobs N] [--seed N] [--chunk N] [--faults] "
                 "[--engine fast|reference] [--checkpoint FILE] "
                 "[--resume] [--out FILE] [--stats] [--gate EPS] "
                 "[--stop-after-chunks N] [--kill-worker-after N] "
                 "[--workers host:port,...] [--worker-deadline SEC]\n"
                 "       aitax_cli sweep-serve [--jobs N] "
                 "[--exit-after N]\n"
                 "       aitax_cli serve [--listen PORT] [--bind ADDR] "
                 "[--jobs N] [--accept N] [--port-file FILE]\n");
    std::exit(2);
}

/** The campaign corpus: one fuzz scenario, measured end to end. */
sweep::ScenarioFn
fuzzScenarioFn(std::uint64_t master_seed, bool faults,
               sim::EngineMode engine)
{
    return [master_seed, faults, engine](int index) {
        verify::Scenario s = verify::fuzzScenario(master_seed, index);
        s.faults = faults;
        const verify::ScenarioResult r =
            verify::runScenario(s, engine, verify::Outputs::Summary);
        sweep::ScenarioOutcome out;
        out.e2eMeanMs = r.report.endToEndMeanMs();
        out.events = r.eventsExecuted;
        return out;
    };
}

/**
 * Worker-side corpus addressing: resolve a campaign spec (the identity
 * line, "corpus=fuzz seed=S ... faults=F engine=E") into the campaign's
 * ScenarioFn. Keys other than corpus/seed/faults/engine (scenarios,
 * chunk, ...) shape the coordinator's dispatch, not the per-index
 * function, and are ignored.
 */
sweep::SpecResolver
fuzzSpecResolver()
{
    return [](const std::string &spec,
              std::string *error) -> sweep::ScenarioFn {
        std::string corpus;
        std::uint64_t seed = 2021;
        bool faults = false;
        sim::EngineMode engine = sim::EngineMode::Fast;
        for (const auto &[key, val] : sweep::splitSpec(spec)) {
            if (key == "corpus")
                corpus = val;
            else if (key == "seed" &&
                     !sweep::parseSpecNumber(key, val, seed, error))
                return {};
            else if (key == "faults")
                faults = val != "0";
            else if (key == "engine" &&
                     !sim::parseEngineMode(val, engine)) {
                *error = "unknown engine \"" + val + "\"";
                return {};
            }
        }
        if (corpus != "fuzz") {
            *error = "this worker only serves corpus=fuzz (got \"" +
                     corpus + "\")";
            return {};
        }
        return fuzzScenarioFn(seed, faults, engine);
    };
}

/** Pipe worker mode: serve scenario ranges over stdin/stdout. */
int
sweepServeMain(int argc, char **argv)
{
    sweep::WorkerOptions opts;

    for (int i = 2; i < argc; ++i) {
        const std::string arg = argv[i];
        FlagValues flag{argc, argv, i, campaignUsage};
        if (arg == "--jobs")
            flag.number(opts.jobs);
        else if (arg == "--exit-after")
            flag.number(opts.exitAfterRanges);
        else
            campaignUsage();
    }
    if (opts.jobs <= 0)
        opts.jobs = 1;
    return sweep::runWorker(opts, {}, fuzzSpecResolver());
}

/** Fleet worker daemon: `aitax_cli serve`. */
int
serveMain(int argc, char **argv)
{
    sweep::DaemonOptions opts;

    for (int i = 2; i < argc; ++i) {
        const std::string arg = argv[i];
        FlagValues flag{argc, argv, i, campaignUsage};
        if (arg == "--listen")
            flag.number(opts.port);
        else if (arg == "--bind")
            opts.bindAddr = flag.next();
        else if (arg == "--jobs")
            flag.number(opts.jobs);
        else if (arg == "--accept")
            flag.number(opts.acceptLimit);
        else if (arg == "--port-file")
            opts.portFile = flag.next();
        else
            campaignUsage();
    }
    if (opts.jobs <= 0)
        opts.jobs = 1;
    if (opts.port < 0)
        campaignUsage();
    return sweep::runServeDaemon(opts, fuzzSpecResolver());
}

/** Coordinator mode: shard the corpus across worker processes. */
int
campaignMain(int argc, char **argv)
{
    sweep::CampaignConfig cfg;
    cfg.scenarios = 256;
    std::uint64_t master_seed = 2021;
    int jobs = 1;
    bool faults = false;
    sim::EngineMode engine = sim::EngineMode::Fast;
    std::string out_path;
    bool stats = false;
    double gate_eps = -1.0;

    for (int i = 2; i < argc; ++i) {
        const std::string arg = argv[i];
        FlagValues flag{argc, argv, i, campaignUsage};
        if (arg == "--scenarios")
            flag.number(cfg.scenarios);
        else if (arg == "--shards")
            flag.number(cfg.shards);
        else if (arg == "--jobs")
            flag.number(jobs);
        else if (arg == "--seed")
            flag.number(master_seed);
        else if (arg == "--chunk")
            flag.number(cfg.chunk);
        else if (arg == "--faults")
            faults = true;
        else if (arg == "--engine") {
            if (!sim::parseEngineMode(flag.next(), engine))
                campaignUsage();
        } else if (arg == "--checkpoint")
            cfg.checkpointPath = flag.next();
        else if (arg == "--resume")
            cfg.resume = true;
        else if (arg == "--out")
            out_path = flag.next();
        else if (arg == "--stats")
            stats = true;
        else if (arg == "--gate")
            flag.number(gate_eps);
        else if (arg == "--stop-after-chunks")
            flag.number(cfg.stopAfterChunks);
        else if (arg == "--kill-worker-after")
            flag.number(cfg.killWorkerAfterRanges);
        else if (arg == "--workers") {
            const std::string list = flag.next();
            std::size_t pos = 0;
            while (pos <= list.size()) {
                std::size_t comma = list.find(',', pos);
                if (comma == std::string::npos)
                    comma = list.size();
                if (comma > pos)
                    cfg.workers.push_back(
                        list.substr(pos, comma - pos));
                pos = comma + 1;
            }
            if (cfg.workers.empty())
                campaignUsage();
        } else if (arg == "--worker-deadline")
            flag.number(cfg.workerDeadlineSeconds);
        else
            campaignUsage();
    }
    if (cfg.scenarios <= 0 || cfg.shards <= 0 || cfg.chunk <= 0 ||
        jobs <= 0)
        campaignUsage();

    cfg.identity = "corpus=fuzz seed=" + std::to_string(master_seed) +
                   " scenarios=" + std::to_string(cfg.scenarios) +
                   " chunk=" + std::to_string(cfg.chunk) +
                   " faults=" + (faults ? "1" : "0") +
                   " engine=" + sim::engineModeName(engine);
    cfg.corpusSpec = cfg.identity;
    cfg.workerCmd = {sweep::selfExecutablePath(argv[0]), "sweep-serve",
                     "--jobs", std::to_string(jobs)};

    // runCampaign reads steady_clock for the wall-seconds line on the
    // human progress report only; nothing wall-derived reaches the
    // deterministic campaign outputs (chunk results merge by index).
    // aitax-lint: allow(taint-clock)
    const sweep::CampaignSummary sum = sweep::runCampaign(cfg);

    if (sum.status == sweep::CampaignStatus::Error) {
        std::fprintf(stderr, "campaign: %s\n", sum.error.c_str());
        return 1;
    }

    std::printf("campaign: %s\n", cfg.identity.c_str());
    std::printf("  chunks: %d total, %d run, %d resumed, "
                "%d re-dispatched, %d workers lost (%d hung)\n",
                sum.chunksTotal, sum.chunksRun, sum.chunksResumed,
                sum.chunksRedispatched, sum.workersLost,
                sum.workersHung);
    std::printf("  throughput: %.0f events/sec "
                "(%llu events in %.2f s, transport=%s shards=%d "
                "jobs=%d)\n",
                sum.eventsPerSec,
                static_cast<unsigned long long>(sum.aggregate.events),
                sum.wallSeconds, sum.transport.c_str(),
                cfg.workers.empty()
                    ? cfg.shards
                    : static_cast<int>(cfg.workers.size()),
                jobs);
    std::printf("  latency: %s\n",
                sum.aggregate.latencyMs.summary().c_str());
    if (stats) {
        const sweep::SnapshotCacheStats &c = sum.workerCache;
        std::printf("  worker snapshot cache (all processes): "
                    "%llu hits, %llu misses, %llu stores, "
                    "%llu race discards\n",
                    static_cast<unsigned long long>(c.hits),
                    static_cast<unsigned long long>(c.misses),
                    static_cast<unsigned long long>(c.stores),
                    static_cast<unsigned long long>(c.raceDiscards));
    }

    if (sum.status == sweep::CampaignStatus::Interrupted) {
        std::printf("campaign: interrupted with %d/%d chunks done; "
                    "finish with --resume\n",
                    sum.chunksRun + sum.chunksResumed, sum.chunksTotal);
        return 3;
    }

    if (!out_path.empty()) {
        std::ofstream out(out_path);
        if (!out) {
            std::fprintf(stderr, "cannot open %s\n", out_path.c_str());
            return 1;
        }
        // The transport line is observability; strip it (grep -v) when
        // byte-comparing reports across transports.
        out << sweep::campaignReportJson(cfg.identity, sum.aggregate,
                                         sum.transport);
        out.close();
        if (!out) {
            std::fprintf(stderr, "cannot write %s\n", out_path.c_str());
            return 1;
        }
        std::printf("campaign: wrote %s\n", out_path.c_str());
    }

    if (gate_eps >= 0.0 && sum.eventsPerSec < gate_eps) {
        std::fprintf(stderr,
                     "campaign: GATE FAIL aggregate throughput "
                     "%.0f events/sec < floor %.0f\n",
                     sum.eventsPerSec, gate_eps);
        return 1;
    }
    return 0;
}

} // namespace

int
main(int argc, char **argv)
{
    if (argc > 1 && std::strcmp(argv[1], "verify") == 0)
        return verifyMain(argc, argv);
    if (argc > 1 && std::strcmp(argv[1], "sweep-serve") == 0)
        return sweepServeMain(argc, argv);
    if (argc > 1 && std::strcmp(argv[1], "serve") == 0)
        return serveMain(argc, argv);
    if (argc > 1 && std::strcmp(argv[1], "campaign") == 0)
        return campaignMain(argc, argv);

    std::string model = "mobilenet_v1";
    std::string dtype = "fp32";
    std::string framework = "cpu";
    std::string mode = "app";
    std::string soc_name = "Snapdragon 845";
    int runs = 500;
    int threads = 4;
    std::uint64_t seed = 7;
    bool instrument = false;
    bool pre_on_dsp = false;
    bool streaming = false;
    std::string faults_spec;
    bool timeline = false;
    bool energy = false;
    bool stats = false;
    std::string chrome_trace_path;

    for (int i = 1; i < argc; ++i) {
        const std::string arg = argv[i];
        FlagValues flag{argc, argv, i, [&] { usage(argv[0]); }};
        if (arg == "--model")
            model = flag.next();
        else if (arg == "--dtype")
            dtype = flag.next();
        else if (arg == "--framework")
            framework = flag.next();
        else if (arg == "--mode")
            mode = flag.next();
        else if (arg == "--soc")
            soc_name = flag.next();
        else if (arg == "--runs")
            flag.number(runs);
        else if (arg == "--threads")
            flag.number(threads);
        else if (arg == "--seed")
            flag.number(seed);
        else if (arg == "--instrument")
            instrument = true;
        else if (arg == "--pre-on-dsp")
            pre_on_dsp = true;
        else if (arg == "--streaming")
            streaming = true;
        else if (arg == "--faults")
            faults_spec = flag.next();
        else if (arg == "--timeline")
            timeline = true;
        else if (arg == "--chrome-trace")
            chrome_trace_path = flag.next();
        else if (arg == "--energy")
            energy = true;
        else if (arg == "--stats")
            stats = true;
        else
            usage(argv[0]);
    }

    if (model == "list") {
        listModels();
        return 0;
    }
    const auto *info = models::findModel(model);
    if (info == nullptr) {
        std::fprintf(stderr, "unknown model '%s'; try --model list\n",
                     model.c_str());
        return 2;
    }
    const soc::SocConfig *platform = soc::findPlatform(soc_name);
    if (platform == nullptr) {
        std::fprintf(stderr, "unknown platform '%s'; valid --soc names:\n",
                     soc_name.c_str());
        for (const auto &p : soc::allPlatforms())
            std::fprintf(stderr, "  %s\n", p.socName.c_str());
        return 2;
    }
    if (runs <= 0 || threads <= 0)
        usage(argv[0]);

    app::PipelineConfig cfg;
    cfg.model = info;
    cfg.threads = threads;
    cfg.instrumentationEnabled = instrument;
    cfg.preprocessOnDsp = pre_on_dsp;
    cfg.streamingCapture = streaming;

    if (dtype == "fp32")
        cfg.dtype = tensor::DType::Float32;
    else if (dtype == "int8" || dtype == "uint8")
        cfg.dtype = tensor::DType::UInt8;
    else
        usage(argv[0]);

    if (framework == "cpu")
        cfg.framework = app::FrameworkKind::TfliteCpu;
    else if (framework == "gpu")
        cfg.framework = app::FrameworkKind::TfliteGpu;
    else if (framework == "hexagon")
        cfg.framework = app::FrameworkKind::TfliteHexagon;
    else if (framework == "nnapi")
        cfg.framework = app::FrameworkKind::TfliteNnapi;
    else if (framework == "snpe")
        cfg.framework = app::FrameworkKind::SnpeDsp;
    else
        usage(argv[0]);

    if (mode == "cli")
        cfg.mode = app::HarnessMode::CliBenchmark;
    else if (mode == "bench-app")
        cfg.mode = app::HarnessMode::BenchmarkApp;
    else if (mode == "app")
        cfg.mode = app::HarnessMode::AndroidApp;
    else
        usage(argv[0]);

    soc::SocSystem sys(*platform, seed);
    if (!faults_spec.empty()) {
        faults::FaultConfig fault_cfg;
        std::string error;
        if (!faults::parseFaultSpec(faults_spec, &fault_cfg, &error)) {
            std::fprintf(stderr, "bad --faults spec '%s': %s\n",
                         faults_spec.c_str(), error.c_str());
            return 2;
        }
        sys.armFaults(fault_cfg);
    }
    app::Application application(sys, cfg);

    std::printf("platform: %s (%s), model init %.2f ms, plan: %s\n\n",
                sys.config().name.c_str(), sys.config().socName.c_str(),
                sim::nsToMs(application.modelInitNs()),
                application.engine().plan().summary().c_str());

    core::TaxReport report;
    sim::TimeNs done = 0;
    application.scheduleRuns(runs, report,
                             [&](sim::TimeNs t) { done = t; });
    sys.run();

    report.render(std::cout);

    if (!application.rpcLog().empty()) {
        const auto &first = application.rpcLog().front();
        std::printf("\nDSP offload: %zu FastRPC calls, cold start "
                    "%.2f ms (session open %.2f ms)\n",
                    application.rpcLog().size(),
                    sim::nsToMs(first.totalNs()),
                    sim::nsToMs(first.sessionOpenNs));
    }

    if (sys.faults() != nullptr) {
        std::printf("\n%s\n  %s\n",
                    sys.faults()->plan().describe().c_str(),
                    sys.faults()->stats().summary().c_str());
    }

    if (stats) {
        std::printf("\nsimulator: %llu events executed, "
                    "%llu front-cache hits\n",
                    static_cast<unsigned long long>(
                        sys.simulator().eventsExecuted()),
                    static_cast<unsigned long long>(
                        sys.simulator().frontCacheHits()));
        printSnapshotCacheStats();
    }

    if (energy) {
        std::printf("\nenergy: total %.2f mJ (%.3f mJ/inference)\n",
                    sys.energy().totalMj(),
                    sys.energy().totalMj() / runs);
        for (auto d : soc::kAllPowerDomains) {
            std::printf("  %-10s %.2f mJ\n",
                        std::string(soc::powerDomainName(d)).c_str(),
                        sys.energy().domainMj(d));
        }
    }

    if (!chrome_trace_path.empty()) {
        std::ofstream out(chrome_trace_path);
        if (!out) {
            std::fprintf(stderr, "cannot open %s\n",
                         chrome_trace_path.c_str());
            return 1;
        }
        trace::writeChromeTrace(out, sys.tracer());
        out.close();
        if (!out) {
            std::fprintf(stderr, "cannot write %s\n",
                         chrome_trace_path.c_str());
            return 1;
        }
        std::printf("\nwrote chrome trace to %s\n",
                    chrome_trace_path.c_str());
    }

    if (timeline && done > 0) {
        std::printf("\n");
        trace::renderTimeline(std::cout, sys.tracer(), 0, done, 72);
    }
    return 0;
}
