/**
 * @file
 * aitax_bench: the repository benchmark. See README.md for the
 * workloads, the metrics and how the numbers map onto src/ modules.
 *
 *   aitax_bench --workload NAME [--seed N] [--seconds S] [--trace 0|1]
 *               [--scenarios N] [--out DIR] [--kill-worker-after N]
 *   aitax_bench --smoke     self-test of the command above (ctest)
 *   aitax_bench --serve --samples DIR [--exit-after N]
 *                           campaign worker; the benchmark re-execs
 *                           itself in this mode
 *
 * One run measures passes back to back until --seconds have elapsed
 * (at least one). Pass p runs slice p of the workload's corpus:
 * scenarios [p*N, (p+1)*N). Outputs are checked after the timing.
 * Every metric is printed as "<workload> <metric> <value> <unit>"; the
 * last line of standard output is one JSON object with the end-to-end
 * metrics (--trace 0) or the per-layer metrics (--trace 1).
 */

#include <fcntl.h>
#include <sys/wait.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <cerrno>
#include <charconv>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <limits>
#include <map>
#include <string>
#include <vector>

#include "corpus.h"
#include "decompose.h"
#include "spans.h"
#include "stats/numfmt.h"
#include "sweep/campaign.h"
#include "sweep/snapshot_cache.h"
#include "sweep/sweep_runner.h"
#include "verify/invariants.h"

namespace fs = std::filesystem;

namespace aitax::bench {

namespace {

struct Options
{
    const Workload *workload = nullptr;
    std::uint64_t seed = kDefaultSeed;
    double seconds = 10.0;
    bool trace = false;
    /** Scenarios per pass; 0 selects the workload's own size. */
    int scenarios = 0;
    std::string outDir = ".bench_out";
    /** Crash injection: worker 0 exits on receiving this range. */
    int killWorkerAfter = -1;
    std::string selfExe;
};

[[noreturn]] void
usage()
{
    std::fprintf(stderr,
                 "usage: aitax_bench --workload NAME [--seed N] "
                 "[--seconds S] [--trace 0|1] [--scenarios N] "
                 "[--out DIR] [--kill-worker-after N]\n"
                 "       aitax_bench --smoke\n"
                 "workloads:");
    for (const Workload &w : workloads())
        std::fprintf(stderr, " %s", w.name);
    std::fprintf(stderr, "\n");
    std::exit(2);
}

double
seconds(std::int64_t ns)
{
    return static_cast<double>(ns) / 1e9;
}

double
ratio(double num, double den)
{
    return den > 0.0 ? num / den : 0.0;
}

double
median(std::vector<double> v)
{
    if (v.empty())
        return 0.0;
    std::sort(v.begin(), v.end());
    const std::size_t n = v.size();
    return n % 2 == 1 ? v[n / 2] : (v[n / 2 - 1] + v[n / 2]) / 2.0;
}

/** Nearest-rank percentile, @p q in (0, 1]. */
double
percentile(std::vector<double> v, double q)
{
    if (v.empty())
        return 0.0;
    std::sort(v.begin(), v.end());
    const auto rank = static_cast<std::size_t>(
        std::ceil(q * static_cast<double>(v.size())));
    return v[std::clamp<std::size_t>(rank, 1, v.size()) - 1];
}

/** Shortest text that reads back as exactly @p v. */
std::string
shortest(double v)
{
    char buf[64];
    const auto r = std::to_chars(buf, buf + sizeof buf, v);
    return std::string(buf, r.ptr);
}

bool
sameBits(double a, double b)
{
    return std::memcmp(&a, &b, sizeof a) == 0;
}

/** Small per-thread id for span tracks. */
int
threadSlot()
{
    static std::atomic<int> next{1};
    thread_local const int slot = next++;
    return slot;
}

/** This process's peak resident set (VmHWM) in MiB; 0 if unreadable. */
double
peakRssMb()
{
    std::FILE *f = std::fopen("/proc/self/status", "r");
    if (f == nullptr)
        return 0.0;
    char line[256];
    long kb = 0;
    while (std::fgets(line, sizeof line, f) != nullptr)
        if (std::sscanf(line, "VmHWM: %ld kB", &kb) == 1)
            break;
    std::fclose(f);
    return static_cast<double>(kb) / 1024.0;
}

/** Restart this process's peak-RSS tracking from its current size. */
void
resetPeakRss()
{
    if (std::FILE *f = std::fopen("/proc/self/clear_refs", "w")) {
        std::fputs("5", f);
        std::fclose(f);
    }
}

// ---------------------------------------------------------------------
// Corpus addressing on the campaign wire
// ---------------------------------------------------------------------

struct Slice
{
    std::string corpus;
    std::uint64_t seed = 0;
    /** Corpus index of the slice's scenario 0. */
    int first = 0;
    int scenarios = 0;
};

std::string
specLine(const Slice &s)
{
    return "corpus=" + s.corpus + " seed=" + std::to_string(s.seed) +
           " first=" + std::to_string(s.first) +
           " scenarios=" + std::to_string(s.scenarios) +
           " chunk=" + std::to_string(kChunk);
}

bool
parseSpec(const std::string &spec, Slice &out, std::string *error)
{
    Slice s;
    std::size_t pos = 0;
    while (pos < spec.size()) {
        std::size_t end = spec.find(' ', pos);
        if (end == std::string::npos)
            end = spec.size();
        const std::string tok = spec.substr(pos, end - pos);
        pos = end + 1;
        const std::size_t eq = tok.find('=');
        if (eq == std::string::npos)
            continue;
        const std::string key = tok.substr(0, eq);
        const char *val = tok.c_str() + eq + 1;
        if (key == "corpus")
            s.corpus = val;
        else if (key == "seed" && !stats::parseU64(val, s.seed))
            break;
        else if (key == "first" && !stats::parseInt(val, s.first))
            break;
        else if (key == "scenarios" && !stats::parseInt(val, s.scenarios))
            break;
    }
    const bool known = s.corpus == "fuzz" || s.corpus == "tiny" ||
                       s.corpus == "paper" || s.corpus == "verify";
    if (!known || s.first < 0 || s.scenarios <= 0 ||
        s.first > std::numeric_limits<int>::max() - s.scenarios) {
        *error = "bad benchmark spec: " + spec;
        return false;
    }
    out = s;
    return true;
}

sweep::ScenarioOutcome
outcomeOf(const verify::ScenarioResult &r)
{
    return {r.report.endToEndMeanMs(), r.eventsExecuted};
}

// ---------------------------------------------------------------------
// Worker side: time each scenario call, stream the samples to a file
// ---------------------------------------------------------------------

/** One scenario call as the benchmark's wrapper saw it. */
struct Sample
{
    /** Slice-relative index; -1 marks a missing sample. */
    int index = -1;
    std::int64_t beginNs = 0;
    std::int64_t endNs = 0;
    double e2eMeanMs = 0.0;
    std::uint64_t events = 0;
};

/**
 * A worker's sample file: "w <pid> <main_ns>", one
 * "s <index> <begin_ns> <end_ns> <e2e_ms> <events>" line per scenario,
 * and "m <peak_rss_mb>" at a clean exit.
 * Lines are written once per chunk, before the worker reports the
 * chunk done, so a crashed worker loses only its unfinished chunk.
 */
class SampleWriter
{
  public:
    SampleWriter(const std::string &path, std::int64_t mainNs)
        : fd_(::open(path.c_str(), O_WRONLY | O_CREAT | O_TRUNC, 0644))
    {
        buf_ = "w " + std::to_string(getpid()) + " " +
               std::to_string(mainNs) + "\n";
    }
    SampleWriter(const SampleWriter &) = delete;
    SampleWriter &operator=(const SampleWriter &) = delete;
    ~SampleWriter()
    {
        flush();
        if (fd_ >= 0)
            ::close(fd_);
    }

    bool ok() const { return fd_ >= 0; }

    void finish(double peakMb)
    {
        buf_ += "m ";
        stats::appendG17(buf_, peakMb);
        buf_ += "\n";
        flush();
    }

    void add(const Sample &s)
    {
        buf_ += "s " + std::to_string(s.index) + " " +
                std::to_string(s.beginNs) + " " + std::to_string(s.endNs) +
                " ";
        stats::appendG17(buf_, s.e2eMeanMs);
        buf_ += " " + std::to_string(s.events) + "\n";
    }

    void flush()
    {
        std::size_t off = 0;
        while (fd_ >= 0 && off < buf_.size()) {
            const ssize_t n =
                ::write(fd_, buf_.data() + off, buf_.size() - off);
            if (n < 0 && errno == EINTR)
                continue;
            if (n <= 0)
                break; // the coordinator counts what never arrives
            off += static_cast<std::size_t>(n);
        }
        buf_.clear();
    }

  private:
    int fd_;
    std::string buf_;
};

int
serveMain(int argc, char **argv)
{
    const std::int64_t mainNs = nowNs();
    std::string dir;
    sweep::WorkerOptions opts;
    // One job: scenarios run on this thread, so the writer needs no lock.
    opts.jobs = 1;
    for (int i = 2; i < argc; ++i) {
        const std::string arg = argv[i];
        if (i + 1 >= argc)
            usage();
        if (arg == "--samples")
            dir = argv[++i];
        else if (arg == "--exit-after")
            opts.exitAfterRanges = std::atoi(argv[++i]);
        else
            usage();
    }
    if (dir.empty())
        usage();
    SampleWriter writer(dir + "/w-" + std::to_string(getpid()) + ".txt",
                        mainNs);
    if (!writer.ok()) {
        std::fprintf(stderr, "aitax_bench --serve: cannot write in %s\n",
                     dir.c_str());
        return 1;
    }
    const sweep::SpecResolver resolver =
        [&writer](const std::string &spec,
                  std::string *error) -> sweep::ScenarioFn {
        Slice slice;
        if (!parseSpec(spec, slice, error))
            return {};
        return [&writer, slice](int i) {
            Sample sample;
            sample.index = i;
            sample.beginNs = nowNs();
            const sweep::ScenarioOutcome out = outcomeOf(verify::runScenario(
                corpusScenario(slice.corpus, slice.seed, slice.first + i)));
            sample.endNs = nowNs();
            sample.e2eMeanMs = out.e2eMeanMs;
            sample.events = out.events;
            writer.add(sample);
            if ((i + 1) % kChunk == 0 || i + 1 == slice.scenarios)
                writer.flush();
            return out;
        };
    };
    const int rc = sweep::runWorker(opts, {}, resolver);
    writer.finish(peakRssMb());
    return rc;
}

// ---------------------------------------------------------------------
// Coordinator side: one measured pass
// ---------------------------------------------------------------------

struct WorkerLog
{
    int pid = 0;
    std::int64_t mainNs = 0;
    double peakRssMb = 0.0;
    /** In execution order. */
    std::vector<Sample> samples;
};

/** Read and delete every worker sample file in @p dir. */
std::vector<WorkerLog>
collectWorkerLogs(const std::string &dir)
{
    std::vector<WorkerLog> logs;
    for (const auto &entry : fs::directory_iterator(dir)) {
        std::FILE *f = std::fopen(entry.path().c_str(), "r");
        if (f == nullptr)
            continue;
        WorkerLog log;
        char line[256];
        while (std::fgets(line, sizeof line, f) != nullptr) {
            const char *p = line + 2;
            Sample s;
            if (line[0] == 'w') {
                stats::parseInt(p, log.pid);
                stats::parseI64(p, log.mainNs);
            } else if (line[0] == 'm') {
                stats::parseDouble(p, log.peakRssMb);
            } else if (line[0] == 's' && stats::parseInt(p, s.index) &&
                       stats::parseI64(p, s.beginNs) &&
                       stats::parseI64(p, s.endNs) &&
                       stats::parseDouble(p, s.e2eMeanMs) &&
                       stats::parseU64(p, s.events)) {
                log.samples.push_back(s);
            }
        }
        std::fclose(f);
        fs::remove(entry.path());
        logs.push_back(std::move(log));
    }
    std::sort(logs.begin(), logs.end(),
              [](const WorkerLog &a, const WorkerLog &b) {
                  return a.mainNs < b.mainNs;
              });
    return logs;
}

/** Per-chunk partials merged in chunk order, as the coordinator folds. */
sweep::CampaignAggregate
foldChunked(const std::vector<sweep::ScenarioOutcome> &outcomes)
{
    sweep::CampaignAggregate total;
    for (std::size_t b = 0; b < outcomes.size(); b += kChunk) {
        sweep::CampaignAggregate chunk;
        const std::size_t e = std::min(outcomes.size(), b + kChunk);
        for (std::size_t i = b; i < e; ++i)
            chunk.addScenario(outcomes[i]);
        total.merge(chunk);
    }
    return total;
}

struct Pass
{
    Slice slice;
    bool traced = false;
    double wallS = 0.0;
    double setupS = 0.0;
    double spawnS = 0.0;
    /** Peak RSS of each worker (fleet) or of this process (verify). */
    std::vector<double> peakRssMb;
    /** Simulated events; filled after timing on in-process passes. */
    std::uint64_t events = 0;
    double checksumMs = 0.0;
    /** Scenarios lost, mismatched or failing their invariants. */
    int failed = 0;
    /** Host time of each scenario call, in ms. */
    std::vector<double> scenarioMs;
    /** Fleet: the worker-reported samples, by slice index. */
    std::vector<Sample> byIndex;
    std::string reportJson;
    // Layer readings.
    double busyFrac = 0.0;
    std::vector<double> chunkGapsMs;
    int chunks = 0;
    int chunksRedispatched = 0;
    int workersLost = 0;
    sweep::SnapshotCacheStats cache;
    /** Verify: host seconds inside verifyScenario. */
    double checkS = 0.0;
};

Pass
runFleetPass(const Options &o, Slice slice, bool traced, SpanLog &spans)
{
    Pass pass;
    pass.slice = slice;
    pass.traced = traced;
    const std::string dir =
        o.outDir + "/samples-" + std::to_string(getpid());
    fs::create_directories(dir);

    sweep::CampaignConfig cfg;
    cfg.scenarios = slice.scenarios;
    cfg.chunk = kChunk;
    cfg.shards = kWorkers;
    cfg.identity = specLine(slice);
    cfg.corpusSpec = cfg.identity;
    cfg.workerCmd = {o.selfExe, "--serve", "--samples", dir};
    cfg.killWorkerAfterRanges = o.killWorkerAfter;

    const std::int64_t launch = nowNs();
    const sweep::CampaignSummary sum = sweep::runCampaign(cfg);
    const std::int64_t end = nowNs();
    const std::vector<WorkerLog> logs = collectWorkerLogs(dir);

    const int n = slice.scenarios;
    pass.wallS = seconds(end - launch);
    pass.events = sum.aggregate.events;
    pass.checksumMs = sum.aggregate.checksumMs;
    pass.chunks = sum.chunksRun;
    pass.chunksRedispatched = sum.chunksRedispatched;
    pass.workersLost = sum.workersLost;
    pass.cache = sum.workerCache;
    pass.reportJson = sweep::campaignReportJson(cfg.identity, sum.aggregate);
    pass.byIndex.assign(static_cast<std::size_t>(n), Sample{});
    if (sum.status != sweep::CampaignStatus::Ok) {
        std::fprintf(stderr, "%s: campaign failed: %s\n", o.workload->name,
                     sum.error.c_str());
        pass.failed = n;
        return pass;
    }
    pass.failed = n - static_cast<int>(std::min<std::uint64_t>(
                          sum.aggregate.scenarios, n));

    std::int64_t firstBegin = end;
    std::int64_t firstMain = end;
    double busyNs = 0.0;
    for (const WorkerLog &log : logs) {
        firstMain = std::min(firstMain, log.mainNs);
        if (log.peakRssMb > 0.0)
            pass.peakRssMb.push_back(log.peakRssMb);
        for (const Sample &s : log.samples) {
            if (s.index < 0 || s.index >= n)
                continue;
            firstBegin = std::min(firstBegin, s.beginNs);
            busyNs += static_cast<double>(s.endNs - s.beginNs);
            // A chunk re-run after a worker loss keeps its first sample.
            if (pass.byIndex[static_cast<std::size_t>(s.index)].index < 0)
                pass.byIndex[static_cast<std::size_t>(s.index)] = s;
        }
    }
    pass.setupS = seconds(firstBegin - launch);
    pass.spawnS = seconds(firstMain - launch);
    pass.busyFrac = ratio(busyNs, static_cast<double>(kWorkers) *
                                      static_cast<double>(end - firstBegin));

    // The worker-reported outcomes must fold to the campaign's report.
    std::vector<sweep::ScenarioOutcome> outcomes;
    int missing = 0;
    for (const Sample &s : pass.byIndex) {
        if (s.index < 0) {
            ++missing;
            continue;
        }
        outcomes.push_back({s.e2eMeanMs, s.events});
        pass.scenarioMs.push_back(
            static_cast<double>(s.endNs - s.beginNs) / 1e6);
    }
    if (missing > 0)
        pass.failed = std::max(pass.failed, missing);
    else if (sweep::campaignReportJson(cfg.identity, foldChunked(outcomes)) !=
             pass.reportJson)
        pass.failed = n;

    const std::int64_t campaign =
        traced ? spans.add({"campaign", launch, end, getpid(), 0, -1, -1})
               : -1;
    for (const WorkerLog &log : logs) {
        const std::vector<Sample> &ss = log.samples;
        const std::int64_t worker =
            traced && !ss.empty()
                ? spans.add({"worker", log.mainNs, ss.back().endNs, log.pid,
                             0, campaign, -1})
                : -1;
        // [a, b) is one chunk's run of scenarios on this worker.
        for (std::size_t a = 0, b = 0; a < ss.size(); a = b) {
            b = a + 1;
            while (b < ss.size() &&
                   ss[b].index / kChunk == ss[a].index / kChunk)
                ++b;
            if (a > 0)
                pass.chunkGapsMs.push_back(
                    static_cast<double>(ss[a].beginNs - ss[a - 1].endNs) /
                    1e6);
            if (!traced)
                continue;
            const std::int64_t chunk =
                spans.add({"chunk", ss[a].beginNs, ss[b - 1].endNs, log.pid,
                           0, worker, -1});
            for (std::size_t k = a; k < b; ++k)
                spans.add({"scenario", ss[k].beginNs, ss[k].endNs, log.pid,
                           0, chunk, slice.first + ss[k].index});
        }
    }
    return pass;
}

Pass
runVerifyPass(Slice slice, bool traced, SpanLog &spans)
{
    Pass pass;
    pass.slice = slice;
    pass.traced = traced;
    const auto n = static_cast<std::size_t>(slice.scenarios);
    struct Call
    {
        std::int64_t beginNs = 0;
        std::int64_t endNs = 0;
        int tid = 0;
        bool passed = false;
    };
    std::vector<Call> calls(n);

    // `aitax_cli verify` starts every invocation with an empty warm-up
    // snapshot cache; so does every pass.
    sweep::snapshotCacheClearForTest();
    resetPeakRss();
    const std::int64_t launch = nowNs();
    sweep::SweepRunner pool(kWorkers);
    pool.forEach(n, [&](std::size_t k) {
        Call c;
        c.tid = threadSlot();
        c.beginNs = nowNs();
        c.passed = verify::verifyScenario(
                       corpusScenario(slice.corpus, slice.seed,
                                      slice.first + static_cast<int>(k)))
                       .allPassed();
        c.endNs = nowNs();
        calls[k] = c;
    });
    const std::int64_t end = nowNs();
    pass.peakRssMb.push_back(peakRssMb());
    pass.cache = sweep::snapshotCacheStatsNow();

    std::int64_t firstBegin = end;
    double busyNs = 0.0;
    const std::int64_t parent =
        traced ? spans.add({"verify-pass", launch, end, getpid(), 0, -1, -1})
               : -1;
    for (std::size_t k = 0; k < n; ++k) {
        const Call &c = calls[k];
        firstBegin = std::min(firstBegin, c.beginNs);
        busyNs += static_cast<double>(c.endNs - c.beginNs);
        pass.scenarioMs.push_back(
            static_cast<double>(c.endNs - c.beginNs) / 1e6);
        if (!c.passed)
            ++pass.failed;
        if (traced)
            spans.add({"verifyScenario", c.beginNs, c.endNs, getpid(), c.tid,
                       parent, slice.first + static_cast<std::int64_t>(k)});
    }
    pass.wallS = seconds(end - launch);
    pass.setupS = seconds(firstBegin - launch);
    pass.spawnS = pass.setupS;
    pass.checkS = seconds(static_cast<std::int64_t>(busyNs));
    pass.busyFrac = ratio(busyNs, static_cast<double>(kWorkers) *
                                      static_cast<double>(end - firstBegin));
    return pass;
}

Pass
runPass(const Options &o, Slice slice, bool traced, SpanLog &spans)
{
    return o.workload->fleet ? runFleetPass(o, std::move(slice), traced, spans)
                             : runVerifyPass(std::move(slice), traced, spans);
}

// ---------------------------------------------------------------------
// Checks, run after the timing
// ---------------------------------------------------------------------

/** verify::runScenario on slice scenarios [0, count), kWorkers threads. */
std::vector<sweep::ScenarioOutcome>
referenceOutcomes(const Slice &slice, int count)
{
    sweep::SweepRunner pool(kWorkers);
    return pool.map<sweep::ScenarioOutcome>(
        static_cast<std::size_t>(count), [&slice](std::size_t k) {
            return outcomeOf(verify::runScenario(
                corpusScenario(slice.corpus, slice.seed,
                               slice.first + static_cast<int>(k))));
        });
}

/** Worker-reported outcomes of the first chunk that differ in process. */
int
firstChunkMismatches(const Pass &pass)
{
    const int count = std::min(kChunk, pass.slice.scenarios);
    const auto ref = referenceOutcomes(pass.slice, count);
    int bad = 0;
    for (int k = 0; k < count; ++k) {
        const Sample &s = pass.byIndex[static_cast<std::size_t>(k)];
        const auto &r = ref[static_cast<std::size_t>(k)];
        if (s.index < 0 || !sameBits(s.e2eMeanMs, r.e2eMeanMs) ||
            s.events != r.events)
            ++bad;
    }
    return bad;
}

bool
sameRpcLog(const std::vector<soc::FastRpcBreakdown> &a,
           const std::vector<soc::FastRpcBreakdown> &b)
{
    return std::equal(
        a.begin(), a.end(), b.begin(), b.end(),
        [](const soc::FastRpcBreakdown &x, const soc::FastRpcBreakdown &y) {
            return x.sessionOpenNs == y.sessionOpenNs &&
                   x.userToKernelNs == y.userToKernelNs &&
                   x.cacheFlushNs == y.cacheFlushNs &&
                   x.kernelSignalNs == y.kernelSignalNs &&
                   x.queueWaitNs == y.queueWaitNs &&
                   x.dspExecNs == y.dspExecNs &&
                   x.returnPathNs == y.returnPathNs &&
                   x.retryNs == y.retryNs && x.retries == y.retries &&
                   x.failed == y.failed;
        });
}

bool
sameResult(const verify::ScenarioResult &a, const verify::ScenarioResult &b)
{
    return a.chromeTraceJson == b.chromeTraceJson &&
           a.eventsExecuted == b.eventsExecuted &&
           a.endTimeNs == b.endTimeNs &&
           sameBits(a.report.endToEndMeanMs(), b.report.endToEndMeanMs()) &&
           sameRpcLog(a.rpcLog, b.rpcLog);
}

// ---------------------------------------------------------------------
// The traced decomposition of one slice
// ---------------------------------------------------------------------

struct Layers
{
    std::map<std::string, double> seconds;
    double scenarioS = 0.0;
    std::uint64_t events = 0;
    std::uint64_t frontCacheHits = 0;
    std::uint64_t jsonBytes = 0;
    std::size_t arenaHighWaterBytes = 0;
    std::uint64_t restores = 0;
    std::uint64_t captures = 0;
    /** campaignReportJson of the in-process fold. */
    std::string reportJson;
    /** Scenarios whose decomposition differs from runScenario. */
    int mismatches = 0;
};

Layers
decomposeSlice(const Slice &slice, SpanLog &spans)
{
    struct Run
    {
        Decomposition d;
        sweep::ScenarioOutcome outcome;
        int tid = 0;
        /** Kept for the first chunk only, for the byte comparison. */
        verify::ScenarioResult result;
    };
    // A fresh worker process starts with an empty snapshot cache.
    sweep::snapshotCacheClearForTest();
    sweep::SweepRunner pool(kWorkers);
    std::vector<Run> runs = pool.map<Run>(
        static_cast<std::size_t>(slice.scenarios), [&slice](std::size_t k) {
            Run run;
            run.tid = threadSlot();
            verify::ScenarioResult r = decomposeScenario(
                corpusScenario(slice.corpus, slice.seed,
                               slice.first + static_cast<int>(k)),
                run.d);
            run.outcome = outcomeOf(r);
            if (k < static_cast<std::size_t>(kChunk))
                run.result = std::move(r);
            return run;
        });

    Layers l;
    std::vector<sweep::ScenarioOutcome> outcomes;
    for (std::size_t k = 0; k < runs.size(); ++k) {
        const Run &run = runs[k];
        const Decomposition &d = run.d;
        const std::int64_t parent =
            spans.add({"runScenario", d.beginNs, d.endNs, getpid(), run.tid,
                       -1, slice.first + static_cast<std::int64_t>(k)});
        for (const Step &st : d.steps) {
            l.seconds[st.layer] += seconds(st.endNs - st.beginNs);
            spans.add({st.layer, st.beginNs, st.endNs, getpid(), run.tid,
                       parent, slice.first + static_cast<std::int64_t>(k)});
        }
        l.scenarioS += seconds(d.endNs - d.beginNs);
        l.events += run.outcome.events;
        l.frontCacheHits += d.frontCacheHits;
        l.jsonBytes += d.jsonBytes;
        l.arenaHighWaterBytes =
            std::max(l.arenaHighWaterBytes, d.arenaHighWaterBytes);
        l.restores += d.warmupRestored ? 1 : 0;
        l.captures += d.warmupCaptured ? 1 : 0;
        outcomes.push_back(run.outcome);
    }
    l.reportJson =
        sweep::campaignReportJson(specLine(slice), foldChunked(outcomes));

    for (std::size_t k = 0; k < runs.size() && k < kChunk; ++k)
        if (!sameResult(runs[k].result,
                        verify::runScenario(corpusScenario(
                            slice.corpus, slice.seed,
                            slice.first + static_cast<int>(k)))))
            ++l.mismatches;
    return l;
}

// ---------------------------------------------------------------------
// Metrics and output
// ---------------------------------------------------------------------

struct MetricDef
{
    const char *name;
    const char *unit;
};

constexpr MetricDef kEndToEnd[] = {
    {"wall_s", "s"},          {"events_per_s", "1/s"},
    {"scenario_ms_p50", "ms"}, {"scenario_ms_p99", "ms"},
    {"setup_s", "s"},         {"peak_rss_mb", "MB"},
};

constexpr MetricDef kPerLayer[] = {
    {"trace.serialize_s", "s"},
    {"trace.json_bytes", "bytes"},
    {"trace.serialize_mb_per_s", "MB/s"},
    {"sim.loop_s", "s"},
    {"sim.events", "count"},
    {"sim.ns_per_event", "ns"},
    {"sim.front_cache_hits", "count"},
    {"sim.front_cache_hit_ratio", "ratio"},
    {"sim.arena_reset_s", "s"},
    {"sim.arena_high_water_bytes", "bytes"},
    {"soc.construct_s", "s"},
    {"soc.warmup_capture_s", "s"},
    {"soc.warmup_captures", "count"},
    {"soc.warmup_restore_s", "s"},
    {"soc.warmup_restores", "count"},
    {"sweep.worker_busy_frac", "ratio"},
    {"sweep.spawn_s", "s"},
    {"sweep.chunk_gap_ms_p50", "ms"},
    {"sweep.chunk_gap_ms_p99", "ms"},
    {"sweep.chunks", "count"},
    {"sweep.chunks_redispatched", "count"},
    {"sweep.workers_lost", "count"},
    {"sweep.snapshot_hits", "count"},
    {"sweep.snapshot_misses", "count"},
    {"sweep.snapshot_stores", "count"},
    {"sweep.snapshot_hit_ratio", "ratio"},
    {"verify.scenario_s", "s"},
    {"verify.collect_copy_s", "s"},
    {"verify.unexplained_s", "s"},
    {"verify.check_s", "s"},
    {"trace_overhead_frac", "ratio"},
};

using Values = std::map<std::string, double>;

void
printLine(const char *workload, const std::string &name, double value,
          const char *unit)
{
    std::printf("%s %s %s %s\n", workload, name.c_str(),
                shortest(value).c_str(), unit);
}

template <std::size_t N>
void
printMetrics(const char *workload, const MetricDef (&defs)[N],
             const Values &v)
{
    for (const MetricDef &m : defs)
        printLine(workload, m.name, v.at(m.name), m.unit);
}

template <std::size_t N>
void
printResultJson(bool correct, long attempted, long failed,
                const MetricDef (&defs)[N], const Values &v)
{
    std::string out = std::string("{\"correct\": ") +
                      (correct ? "true" : "false") +
                      ", \"attempted\": " + std::to_string(attempted) +
                      ", \"failed\": " + std::to_string(failed) +
                      ", \"metrics\": {";
    for (std::size_t i = 0; i < N; ++i) {
        const double x = v.at(defs[i].name);
        out += std::string(i > 0 ? ", " : "") + "\"" + defs[i].name +
               "\": {\"value\": " +
               shortest(std::isfinite(x) ? x : 0.0) +
               ", \"unit\": \"" + defs[i].unit + "\"}";
    }
    out += "}}";
    std::printf("%s\n", out.c_str());
}

int
runWorkload(const Options &o)
{
    const Workload &w = *o.workload;
    const int n = o.scenarios > 0 ? o.scenarios : w.passScenarios;
    fs::create_directories(o.outDir);
    SpanLog spans;

    std::vector<Pass> passes;
    const std::int64_t start = nowNs();
    for (int slice = 0;; ++slice) {
        const Slice s{w.corpus, o.seed, slice * n, n};
        if (!o.trace) {
            passes.push_back(runPass(o, s, false, spans));
        } else {
            // Each slice runs untraced and traced, in alternating order.
            const bool tracedFirst = slice % 2 == 1;
            passes.push_back(runPass(o, s, tracedFirst, spans));
            passes.push_back(runPass(o, s, !tracedFirst, spans));
        }
        // Corpus indices are ints: stop before the next slice overflows.
        if (seconds(nowNs() - start) >= o.seconds ||
            static_cast<std::int64_t>(slice + 2) * n >
                std::numeric_limits<int>::max())
            break;
    }
    fs::remove_all(o.outDir + "/samples-" + std::to_string(getpid()));

    // Outputs are checked only now, so checking never competes with
    // the measured passes for the host's cores.
    long attempted = 0;
    std::map<int, sweep::CampaignAggregate> reference;
    std::map<int, std::string> reports;
    for (Pass &p : passes) {
        attempted += n;
        if (w.fleet) {
            p.failed = std::min(n, p.failed + firstChunkMismatches(p));
        } else {
            auto it = reference.find(p.slice.first);
            if (it == reference.end())
                it = reference
                         .emplace(p.slice.first,
                                  foldChunked(referenceOutcomes(p.slice, n)))
                         .first;
            p.events = it->second.events;
            p.checksumMs = it->second.checksumMs;
            p.reportJson = sweep::campaignReportJson(specLine(p.slice),
                                                     it->second);
        }
        // Every run of one slice must report the same bytes.
        const auto [seen, fresh] =
            reports.emplace(p.slice.first, p.reportJson);
        if (!fresh && seen->second != p.reportJson)
            p.failed = n;
        if (p.slice.first == 0 && o.seed == kDefaultSeed &&
            n == w.passScenarios &&
            (p.events != w.fingerprintEvents ||
             stats::formatG17(p.checksumMs) != w.fingerprintChecksumMs)) {
            std::fprintf(stderr,
                         "%s: fingerprint mismatch: events %llu checksum_ms "
                         "%s, expected %llu %s\n",
                         w.name, static_cast<unsigned long long>(p.events),
                         stats::formatG17(p.checksumMs).c_str(),
                         static_cast<unsigned long long>(w.fingerprintEvents),
                         w.fingerprintChecksumMs);
            p.failed = n;
        }
    }

    std::vector<double> walls, setups, rates, rss, ms;
    std::vector<double> busy, spawns, gaps, tracedWalls;
    long failed = 0;
    for (const Pass &p : passes) {
        failed += p.failed;
        if (p.traced) {
            tracedWalls.push_back(p.wallS);
            busy.push_back(p.busyFrac);
            spawns.push_back(p.spawnS);
            gaps.insert(gaps.end(), p.chunkGapsMs.begin(),
                        p.chunkGapsMs.end());
            continue;
        }
        walls.push_back(p.wallS);
        setups.push_back(p.setupS);
        rss.insert(rss.end(), p.peakRssMb.begin(), p.peakRssMb.end());
        rates.push_back(ratio(static_cast<double>(p.events), p.wallS));
        ms.insert(ms.end(), p.scenarioMs.begin(), p.scenarioMs.end());
    }

    Values v;
    v["wall_s"] = median(walls);
    v["events_per_s"] = median(rates);
    v["scenario_ms_p50"] = percentile(ms, 0.50);
    v["scenario_ms_p99"] = percentile(ms, 0.99);
    v["setup_s"] = median(setups);
    v["peak_rss_mb"] = median(rss);

    const Pass &slice0 = passes.front();
    std::printf("%s passes %zu\n", w.name, passes.size());
    std::printf("%s samples %zu\n", w.name, ms.size());
    std::printf("%s det slice0.events %llu\n", w.name,
                static_cast<unsigned long long>(slice0.events));
    std::printf("%s det slice0.checksum_ms %s\n", w.name,
                stats::formatG17(slice0.checksumMs).c_str());

    if (o.trace) {
        const Pass &t0 = passes[0].traced ? passes[0] : passes[1];
        const Layers l = decomposeSlice(t0.slice, spans);
        attempted += n;
        failed += l.mismatches;
        if (w.fleet && l.reportJson != t0.reportJson) {
            std::fprintf(stderr,
                         "%s: in-process fold differs from the campaign "
                         "report\n",
                         w.name);
            failed += n;
        }
        auto layer = [&l](const char *name) {
            const auto it = l.seconds.find(name);
            return it == l.seconds.end() ? 0.0 : it->second;
        };
        double stepS = 0.0;
        for (const auto &[name, s] : l.seconds)
            stepS += s;
        const sweep::SnapshotCacheStats &c = t0.cache;
        v["trace.serialize_s"] = layer("trace.serialize");
        v["trace.json_bytes"] = static_cast<double>(l.jsonBytes);
        v["trace.serialize_mb_per_s"] =
            ratio(static_cast<double>(l.jsonBytes) / 1e6,
                  layer("trace.serialize"));
        v["sim.loop_s"] = layer("sim.loop");
        v["sim.events"] = static_cast<double>(l.events);
        v["sim.ns_per_event"] =
            ratio(layer("sim.loop") * 1e9, static_cast<double>(l.events));
        v["sim.front_cache_hits"] = static_cast<double>(l.frontCacheHits);
        v["sim.front_cache_hit_ratio"] =
            ratio(static_cast<double>(l.frontCacheHits),
                  static_cast<double>(l.events));
        v["sim.arena_reset_s"] = layer("sim.arena_reset");
        v["sim.arena_high_water_bytes"] =
            static_cast<double>(l.arenaHighWaterBytes);
        v["soc.construct_s"] = layer("soc.construct");
        v["soc.warmup_capture_s"] = layer("soc.warmup_capture");
        v["soc.warmup_captures"] = static_cast<double>(l.captures);
        v["soc.warmup_restore_s"] = layer("soc.warmup_restore");
        v["soc.warmup_restores"] = static_cast<double>(l.restores);
        v["sweep.worker_busy_frac"] = median(busy);
        v["sweep.spawn_s"] = median(spawns);
        v["sweep.chunk_gap_ms_p50"] = percentile(gaps, 0.50);
        v["sweep.chunk_gap_ms_p99"] = percentile(gaps, 0.99);
        v["sweep.chunks"] = t0.chunks;
        v["sweep.chunks_redispatched"] = t0.chunksRedispatched;
        v["sweep.workers_lost"] = t0.workersLost;
        v["sweep.snapshot_hits"] = static_cast<double>(c.hits);
        v["sweep.snapshot_misses"] = static_cast<double>(c.misses);
        v["sweep.snapshot_stores"] = static_cast<double>(c.stores);
        v["sweep.snapshot_hit_ratio"] =
            ratio(static_cast<double>(c.hits),
                  static_cast<double>(c.hits + c.misses));
        v["verify.scenario_s"] = l.scenarioS;
        v["verify.collect_copy_s"] = layer("verify.collect_copy");
        v["verify.unexplained_s"] = l.scenarioS - stepS;
        v["verify.check_s"] = t0.checkS;
        v["trace_overhead_frac"] =
            ratio(median(tracedWalls), median(walls)) - 1.0;
        std::printf("%s det sim.events %llu\n", w.name,
                    static_cast<unsigned long long>(l.events));
        std::printf("%s det trace.json_bytes %llu\n", w.name,
                    static_cast<unsigned long long>(l.jsonBytes));
        const std::string path =
            o.outDir + "/spans-" + std::string(w.name) + ".json";
        if (!spans.writeChromeTrace(path)) {
            std::fprintf(stderr, "%s: cannot write %s\n", w.name,
                         path.c_str());
            return 1;
        }
        std::printf("%s spans %zu %s\n", w.name, spans.size(), path.c_str());
    }

    printMetrics(w.name, kEndToEnd, v);
    if (ms.size() >= 10000)
        printLine(w.name, "scenario_ms_p999", percentile(ms, 0.999), "ms");
    printLine(w.name, "failed_frac",
              ratio(static_cast<double>(failed),
                    static_cast<double>(attempted)),
              "ratio");
    if (o.trace) {
        printMetrics(w.name, kPerLayer, v);
        printResultJson(failed == 0, attempted, failed, kPerLayer, v);
    } else {
        printResultJson(failed == 0, attempted, failed, kEndToEnd, v);
    }
    return failed == 0 ? 0 : 1;
}

// ---------------------------------------------------------------------
// --smoke: the benchmark's own test, run by ctest
// ---------------------------------------------------------------------

/** Run @p exe with @p args; returns its exit status and standard output. */
std::pair<int, std::string>
runChild(const std::string &exe, const std::vector<std::string> &args)
{
    int fds[2];
    if (pipe(fds) != 0)
        return {-1, ""};
    const pid_t pid = fork();
    if (pid == 0) {
        dup2(fds[1], STDOUT_FILENO);
        close(fds[0]);
        close(fds[1]);
        std::vector<char *> argv{const_cast<char *>(exe.c_str())};
        for (const std::string &a : args)
            argv.push_back(const_cast<char *>(a.c_str()));
        argv.push_back(nullptr);
        execv(exe.c_str(), argv.data());
        _exit(127);
    }
    close(fds[1]);
    std::string out;
    char buf[4096];
    for (ssize_t got = 0; (got = read(fds[0], buf, sizeof buf)) != 0;) {
        if (got < 0 && errno == EINTR)
            continue;
        if (got < 0)
            break;
        out.append(buf, static_cast<std::size_t>(got));
    }
    close(fds[0]);
    int status = 0;
    if (pid < 0 || waitpid(pid, &status, 0) != pid)
        return {-1, out};
    return {WIFEXITED(status) ? WEXITSTATUS(status) : -1, out};
}

/** "<workload> <name> <value> <unit>" lines, as name -> "value unit". */
std::map<std::string, std::string>
metricLines(const std::string &out)
{
    std::map<std::string, std::string> m;
    std::size_t pos = 0;
    while (pos < out.size()) {
        std::size_t nl = out.find('\n', pos);
        if (nl == std::string::npos)
            nl = out.size();
        char name[128];
        char value[64];
        char unit[32];
        if (std::sscanf(out.substr(pos, nl - pos).c_str(),
                        "%*s %127s %63s %31s", name, value, unit) == 3)
            m[name] = std::string(value) + " " + unit;
        pos = nl + 1;
    }
    return m;
}

/** The lines of @p out that contain @p needle. */
std::string
linesWith(const std::string &out, const std::string &needle)
{
    std::string found;
    std::size_t pos = 0;
    while (pos < out.size()) {
        std::size_t nl = out.find('\n', pos);
        if (nl == std::string::npos)
            nl = out.size();
        const std::string line = out.substr(pos, nl - pos);
        if (line.find(needle) != std::string::npos)
            found += line + "\n";
        pos = nl + 1;
    }
    return found;
}

double
metricValue(const std::map<std::string, std::string> &m,
            const std::string &name)
{
    const auto it = m.find(name);
    return it == m.end() ? -1.0 : std::atof(it->second.c_str());
}

int
smokeMain(const std::string &exe)
{
    int failures = 0;
    auto expect = [&failures](bool ok, const std::string &what) {
        std::printf("%s %s\n", ok ? "ok  " : "FAIL", what.c_str());
        failures += ok ? 0 : 1;
    };
    auto resultOk = [](const std::pair<int, std::string> &r) {
        return r.first == 0 &&
               r.second.find("{\"correct\": true,") != std::string::npos;
    };
    auto hasAll = [](const std::map<std::string, std::string> &m,
                     const auto &defs) {
        for (const MetricDef &d : defs) {
            const auto it = m.find(d.name);
            if (it == m.end() ||
                it->second.substr(it->second.find(' ') + 1) != d.unit)
                return false;
        }
        return true;
    };

    for (const Workload &w : workloads()) {
        const std::vector<std::string> base = {
            "--workload", w.name, "--seconds", "0", "--scenarios",
            std::to_string(w.smokeScenarios)};
        auto with = [&base](std::vector<std::string> extra) {
            extra.insert(extra.begin(), base.begin(), base.end());
            return extra;
        };
        const auto plain = runChild(exe, with({"--trace", "0"}));
        const auto traced = runChild(exe, with({"--trace", "1"}));
        const auto again = runChild(exe, with({"--trace", "0"}));
        const auto other = runChild(exe, with({"--trace", "0", "--seed", "7"}));
        const std::string name = w.name;
        expect(resultOk(plain) && resultOk(traced) && resultOk(again) &&
                   resultOk(other),
               name + ": runs pass their output checks");
        expect(hasAll(metricLines(plain.second), kEndToEnd),
               name + ": every end-to-end metric printed with its unit");
        expect(hasAll(metricLines(traced.second), kPerLayer),
               name + ": every per-layer metric printed with its unit");
        const std::string det = " det ";
        expect(!linesWith(plain.second, det).empty() &&
                   linesWith(plain.second, det) ==
                       linesWith(again.second, det),
               name + ": same seed, identical deterministic section");
        const std::string fingerprint = " det slice0.checksum_ms ";
        expect(!linesWith(plain.second, fingerprint).empty() &&
                   linesWith(plain.second, fingerprint) !=
                       linesWith(other.second, fingerprint),
               name + ": another seed, another fingerprint");
    }

    const Workload &fuzz = workloads().front();
    const auto crash = runChild(
        exe, {"--workload", fuzz.name, "--seconds", "0", "--scenarios",
              std::to_string(fuzz.smokeScenarios), "--trace", "1",
              "--kill-worker-after", "1"});
    const auto m = metricLines(crash.second);
    expect(resultOk(crash) && metricValue(m, "failed_frac") == 0.0 &&
               metricValue(m, "sweep.workers_lost") >= 1.0 &&
               metricValue(m, "sweep.chunks_redispatched") >= 1.0,
           "a killed worker is counted and its chunk re-run, losing nothing");

    std::printf("smoke: %d failure(s)\n", failures);
    return failures == 0 ? 0 : 1;
}

} // namespace

} // namespace aitax::bench

int
main(int argc, char **argv)
{
    using namespace aitax::bench;
    if (argc > 1 && std::strcmp(argv[1], "--serve") == 0)
        return serveMain(argc, argv);

    Options o;
    o.selfExe = aitax::sweep::selfExecutablePath(argv[0]);
    bool smoke = false;
    for (int i = 1; i < argc; ++i) {
        const std::string arg = argv[i];
        if (arg == "--smoke") {
            smoke = true;
            continue;
        }
        if (i + 1 >= argc)
            usage();
        const char *val = argv[++i];
        if (arg == "--workload") {
            o.workload = findWorkload(val);
            if (o.workload == nullptr)
                usage();
        } else if (arg == "--seed") {
            if (!aitax::stats::parseU64(val, o.seed) || *val != '\0')
                usage();
        } else if (arg == "--seconds") {
            if (!aitax::stats::parseDouble(val, o.seconds) || *val != '\0' ||
                o.seconds < 0.0)
                usage();
        } else if (arg == "--trace") {
            if (std::strcmp(val, "0") != 0 && std::strcmp(val, "1") != 0)
                usage();
            o.trace = val[0] == '1';
        } else if (arg == "--scenarios") {
            if (!aitax::stats::parseInt(val, o.scenarios) || *val != '\0' ||
                o.scenarios <= 0)
                usage();
        } else if (arg == "--out") {
            o.outDir = val;
        } else if (arg == "--kill-worker-after") {
            if (!aitax::stats::parseInt(val, o.killWorkerAfter) ||
                *val != '\0')
                usage();
        } else {
            usage();
        }
    }
    if (smoke)
        return smokeMain(o.selfExe);
    if (o.workload == nullptr)
        usage();
    return runWorkload(o);
}
