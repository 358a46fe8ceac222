/**
 * @file
 * Differential harness for the fast-path simulation core: the Fast
 * engine (skip-ahead front cache, chained interference, warm-up prefix
 * memoization) must change NOTHING observable relative to the
 * Reference engine — not a trace byte, not a CSV cell, not a fault
 * tally — across a seeded corpus covering every Table II chipset,
 * faults on and off, and any worker count.
 *
 * Also the negative side of the memoization contract: scenarios that
 * share a warm-up prefix but diverge in streaming, faults, background
 * load, thread count or instrumentation must never share a snapshot,
 * either because the divergent field is part of the cache key or
 * because the scenario is classified ineligible outright.
 */

#include <gtest/gtest.h>

#include <cstdint>
#include <sstream>
#include <string>
#include <vector>

#include "soc/chipsets.h"
#include "sweep/snapshot_cache.h"
#include "sweep/sweep_runner.h"
#include "verify/scenario.h"

namespace aitax::verify {
namespace {

constexpr std::uint64_t kMasterSeed = 0xD1FFBEEFu;
constexpr int kCorpusSize = 64;

/**
 * The differential corpus: >= 64 fuzz-sampled scenarios, re-pinned so
 * the chipset axis cycles through every Table II platform (scenario
 * validity never depends on the chipset, so the re-pin is safe).
 * Every third scenario is additionally pinned to the snapshot-eligible
 * CLI-benchmark class — rare under the fuzz distribution (~3%), and
 * the memoized restore path needs dense differential coverage, not a
 * lucky draw. The pinned rows cycle through the three fork-stream
 * sub-shapes (quiet, streaming capture, background-loaded) so every
 * warm-up class the cache serves is byte-compared against Reference.
 * Some rows also leave the thread-count and instrumentation defaults
 * the paper harnesses vary, so those fields reach the byte compare.
 */
std::vector<Scenario>
differentialCorpus(bool faults)
{
    const auto platforms = soc::allPlatforms();
    std::vector<Scenario> out;
    out.reserve(kCorpusSize);
    for (int i = 0; i < kCorpusSize; ++i) {
        Scenario s = fuzzScenario(kMasterSeed, i);
        s.socName = platforms[static_cast<std::size_t>(i) %
                              platforms.size()]
                        .socName;
        s.faults = faults;
        if (i % 3 == 0) {
            s.mode = app::HarnessMode::CliBenchmark;
            switch ((i / 3) % 3) {
              case 0: // quiet warm-up
                s.streaming = false;
                s.dspLoadProcesses = 0;
                s.cpuLoadProcesses = 0;
                break;
              case 1: // streaming capture
                s.streaming = true;
                s.dspLoadProcesses = 0;
                s.cpuLoadProcesses = 0;
                break;
              default: // background-loaded
                s.streaming = false;
                s.dspLoadProcesses = 1;
                s.cpuLoadProcesses = 1;
                break;
            }
        }
        if (i % 5 == 1)
            s.threads = 1;
        if (i % 7 == 2)
            s.instrumentation = true;
        out.push_back(s);
    }
    return out;
}

/**
 * Serialize everything a scenario produces into one comparable byte
 * string: the TaxReport CSV, the scalar witnesses, every FastRPC
 * breakdown field, every fault tally, and the full Chrome trace.
 */
std::string
resultBytes(const ScenarioResult &r)
{
    std::ostringstream os;
    os.precision(17);
    r.report.renderCsv(os);
    os << "|end=" << r.endTimeNs << "|energy=" << r.energyMj
       << "|thermal=" << r.thermalSpeedFactor
       << "|bg=" << r.backgroundInferences;
    os << "|rpc=" << r.rpcLog.size();
    for (const auto &b : r.rpcLog) {
        os << ";" << b.sessionOpenNs << "," << b.userToKernelNs << ","
           << b.cacheFlushNs << "," << b.kernelSignalNs << ","
           << b.queueWaitNs << "," << b.dspExecNs << ","
           << b.returnPathNs << "," << b.retryNs << "," << b.retries
           << "," << b.failed;
    }
    os << "|frames=" << r.frameLog.size();
    for (const auto &f : r.frameLog)
        os << ";" << f.frame << "," << f.readyAt << "," << f.consumedAt;
    const auto &fs = r.faultStats;
    os << "|faults=" << fs.sessionLosses << "," << fs.transientFailures
       << "," << fs.watchdogKills << "," << fs.retries << ","
       << fs.permanentFailures << "," << fs.thermalEmergencies << ","
       << fs.retryOverheadNs << "," << fs.degradedExecNs;
    for (const auto &fb : fs.fallbacks)
        os << ";" << static_cast<int>(fb.from) << ">"
           << static_cast<int>(fb.to) << "@" << fb.when;
    os << "|trace=" << r.chromeTraceJson;
    return os.str();
}

/**
 * The fields Outputs::Summary keeps, in resultBytes' format: every
 * field except rpcLog, frameLog and chromeTraceJson.
 */
std::string
summaryBytes(const ScenarioResult &r)
{
    ScenarioResult kept = r;
    kept.rpcLog.clear();
    kept.frameLog.clear();
    kept.chromeTraceJson.clear();
    std::ostringstream os;
    os << resultBytes(kept) << "|events=" << r.eventsExecuted;
    return os.str();
}

void
expectCorpusIdentical(bool faults)
{
    sweep::snapshotCacheClearForTest();
    const auto corpus = differentialCorpus(faults);
    for (std::size_t i = 0; i < corpus.size(); ++i) {
        const Scenario &s = corpus[i];
        const std::string ref =
            resultBytes(runScenario(s, sim::EngineMode::Reference));
        const ScenarioResult fast = runScenario(s, sim::EngineMode::Fast);
        ASSERT_EQ(ref, resultBytes(fast))
            << "engine divergence at corpus index " << i << ": "
            << s.describe() << "\nreplay: " << replayCommand(kMasterSeed,
                                                            static_cast<int>(i));
        // Skipping the logs and the trace must not move anything else.
        const ScenarioResult summary =
            runScenario(s, sim::EngineMode::Fast, Outputs::Summary);
        EXPECT_TRUE(summary.rpcLog.empty() && summary.frameLog.empty() &&
                    summary.chromeTraceJson.empty());
        ASSERT_EQ(summaryBytes(fast), summaryBytes(summary))
            << "Outputs::Summary diverges at corpus index " << i << ": "
            << s.describe();
    }
}

TEST(Differential, ReferenceVsFastFaultsOff)
{
    expectCorpusIdentical(/*faults=*/false);
}

TEST(Differential, ReferenceVsFastFaultsOn)
{
    expectCorpusIdentical(/*faults=*/true);
}

/**
 * Snapshot hits must replay byte-identically: run the eligible slice
 * of the corpus twice over a shared cache — first pass populates
 * (misses), second pass restores (hits) — and demand equality with a
 * cache-free Reference run each time.
 */
TEST(Differential, SnapshotHitsReplayByteIdentical)
{
    sweep::snapshotCacheClearForTest();
    std::vector<Scenario> eligible;
    for (const Scenario &s : differentialCorpus(false))
        if (classifySnapshotUse(s) == SnapshotUse::Eligible)
            eligible.push_back(s);
    // The corpus pins every third scenario to the eligible shape; an
    // empty slice would silently gut this test.
    ASSERT_GE(eligible.size(), 8u);

    std::vector<std::string> reference;
    reference.reserve(eligible.size());
    for (const Scenario &s : eligible)
        reference.push_back(
            resultBytes(runScenario(s, sim::EngineMode::Reference)));

    for (int pass = 0; pass < 2; ++pass) {
        for (std::size_t i = 0; i < eligible.size(); ++i) {
            ASSERT_EQ(reference[i],
                      resultBytes(runScenario(eligible[i],
                                              sim::EngineMode::Fast)))
                << "pass " << pass << ", " << eligible[i].describe();
        }
    }
    const auto stats = sweep::snapshotCacheStatsNow();
    EXPECT_GT(stats.hits, 0u) << "second pass never hit the cache";
}

/**
 * The --jobs invariance half of the determinism contract, on the fast
 * engine with the snapshot cache live: a parallel sweep over the
 * corpus must byte-match the serial sweep, regardless of which worker
 * wins the first-capture race for each snapshot key.
 */
void
expectJobsInvariant(bool faults)
{
    const auto corpus = differentialCorpus(faults);
    auto sweep_with = [&corpus](int jobs) {
        sweep::snapshotCacheClearForTest();
        sweep::SweepRunner runner(jobs);
        const std::vector<std::string> rows =
            runner.map<std::string>(corpus.size(), [&corpus](std::size_t i) {
                return resultBytes(
                    runScenario(corpus[i], sim::EngineMode::Fast));
            });
        std::string all;
        for (const std::string &row : rows)
            all += row + "\n";
        return all;
    };
    EXPECT_EQ(sweep_with(1), sweep_with(8));
}

TEST(Differential, JobsInvarianceFaultsOff)
{
    expectJobsInvariant(/*faults=*/false);
}

TEST(Differential, JobsInvarianceFaultsOn)
{
    expectJobsInvariant(/*faults=*/true);
}

// --- Memoization-key fuzz: divergent prefixes never share ------------

/** True when a and b could ever observe the same cache entry. */
bool
couldShareSnapshot(const Scenario &a, const Scenario &b)
{
    return classifySnapshotUse(a) == SnapshotUse::Eligible &&
           classifySnapshotUse(b) == SnapshotUse::Eligible &&
           snapshotKey(a) == snapshotKey(b);
}

TEST(SnapshotKey, AdversarialDivergentPairsNeverShare)
{
    // Hand-picked adversary: identical warm-up prefix fields, one
    // divergent axis each.
    Scenario base;
    base.mode = app::HarnessMode::CliBenchmark;
    base.streaming = false;
    base.dspLoadProcesses = 0;
    base.cpuLoadProcesses = 0;
    base.faults = false;
    ASSERT_EQ(classifySnapshotUse(base), SnapshotUse::Eligible);

    Scenario streaming = base;
    streaming.streaming = true;
    EXPECT_FALSE(couldShareSnapshot(base, streaming));

    Scenario faulted = base;
    faulted.faults = true;
    EXPECT_FALSE(couldShareSnapshot(base, faulted));

    Scenario dsp_bg = base;
    dsp_bg.dspLoadProcesses = 1;
    EXPECT_FALSE(couldShareSnapshot(base, dsp_bg));

    Scenario cpu_bg = base;
    cpu_bg.cpuLoadProcesses = 2;
    EXPECT_FALSE(couldShareSnapshot(base, cpu_bg));

    Scenario other_mode = base;
    other_mode.mode = app::HarnessMode::BenchmarkApp;
    EXPECT_FALSE(couldShareSnapshot(base, other_mode));

    Scenario one_thread = base;
    one_thread.threads = 1;
    EXPECT_FALSE(couldShareSnapshot(base, one_thread));

    Scenario instrumented = base;
    instrumented.instrumentation = true;
    EXPECT_FALSE(couldShareSnapshot(base, instrumented));
}

TEST(SnapshotKey, FuzzedDivergentPairsNeverShare)
{
    sim::RandomStream rng(kMasterSeed, "snapshot-key-fuzz");
    for (int i = 0; i < 256; ++i) {
        Scenario a = sampleScenario(rng);
        Scenario b = a;
        switch (rng.uniformInt(0, 6)) {
          case 0:
            b.streaming = !b.streaming;
            break;
          case 1:
            b.faults = !b.faults;
            break;
          case 2:
            b.dspLoadProcesses = a.dspLoadProcesses == 0 ? 1 : 0;
            break;
          case 3:
            b.cpuLoadProcesses = a.cpuLoadProcesses == 0 ? 2 : 0;
            break;
          case 4:
            b.threads = a.threads == 4 ? 1 : 4;
            break;
          case 5:
            b.instrumentation = !b.instrumentation;
            break;
          default:
            b.mode = a.mode == app::HarnessMode::CliBenchmark
                         ? app::HarnessMode::AndroidApp
                         : app::HarnessMode::CliBenchmark;
            break;
        }
        EXPECT_FALSE(couldShareSnapshot(a, b))
            << "iteration " << i << ": " << a.describe() << " vs "
            << b.describe();
    }
}

TEST(SnapshotKey, SeedAndRunsIntentionallyShared)
{
    // The whole point of the cache: scenarios differing only in seed
    // or run count share the (seed-independent) warm-up prefix.
    Scenario a;
    a.mode = app::HarnessMode::CliBenchmark;
    a.seed = 1;
    a.runs = 4;
    Scenario b = a;
    b.seed = 99;
    b.runs = 12;
    ASSERT_EQ(classifySnapshotUse(a), SnapshotUse::Eligible);
    EXPECT_TRUE(couldShareSnapshot(a, b));
    EXPECT_EQ(snapshotKey(a), snapshotKey(b));
}

TEST(SnapshotKey, PureFunctionOfScenario)
{
    for (const Scenario &s : differentialCorpus(true))
        EXPECT_EQ(snapshotKey(s), snapshotKey(s));
}

/**
 * Fork-stream widening (PR 7): streaming-capture and background-loaded
 * CLI runs are snapshot-eligible and must actually restore from a
 * snapshot their quiet-warm-up twin never shares — each shape keys its
 * own entry, and a hit replays byte-identically to cache-free
 * Reference.
 */
TEST(Differential, ForkStreamShapesHitSnapshotCache)
{
    Scenario shapes[2];
    shapes[0].mode = app::HarnessMode::CliBenchmark;
    shapes[0].runs = 4;
    shapes[0].streaming = true;
    shapes[1].mode = app::HarnessMode::CliBenchmark;
    shapes[1].runs = 4;
    shapes[1].dspLoadProcesses = 1;
    shapes[1].cpuLoadProcesses = 1;
    shapes[1].seed = 7;

    for (Scenario &s : shapes) {
        sweep::snapshotCacheClearForTest();
        ASSERT_TRUE(scenarioValid(s));
        ASSERT_EQ(classifySnapshotUse(s), SnapshotUse::Eligible)
            << s.describe();
        const std::string ref =
            resultBytes(runScenario(s, sim::EngineMode::Reference));
        // First Fast run misses and publishes; the second restores.
        EXPECT_EQ(ref, resultBytes(runScenario(s, sim::EngineMode::Fast)))
            << "miss pass: " << s.describe();
        EXPECT_EQ(ref, resultBytes(runScenario(s, sim::EngineMode::Fast)))
            << "hit pass: " << s.describe();
        const auto stats = sweep::snapshotCacheStatsNow();
        EXPECT_EQ(stats.stores, 1u) << s.describe();
        EXPECT_GE(stats.hits, 1u) << s.describe();
    }
    sweep::snapshotCacheClearForTest();
}

/**
 * Back-to-back runs on one thread must settle into exactly one arena
 * block with no further block allocations — the perf contract the
 * sweep workers rely on (see sim::Arena and verify::scenarioArena).
 */
TEST(Differential, ArenaReusedAcrossBackToBackRuns)
{
    Scenario s;
    s.mode = app::HarnessMode::CliBenchmark;
    s.runs = 4;
    ASSERT_TRUE(scenarioValid(s));
    // Two priming runs establish the high-water mark and coalesce.
    runScenario(s);
    runScenario(s);
    sim::Arena &arena = scenarioArena();
    const std::uint64_t primed = arena.blockAllocs();
    const std::string a = resultBytes(runScenario(s));
    const std::string b = resultBytes(runScenario(s));
    EXPECT_EQ(a, b);
    EXPECT_EQ(arena.blockCount(), 1u);
    EXPECT_EQ(arena.blockAllocs(), primed)
        << "steady-state runs must not touch the heap for blocks";
}

/**
 * Interference arrivals under fault pressure: in AndroidApp mode the
 * Fast engine chains UI ticks and daemon arrivals one at a time over
 * their reserved seq bands, while the Reference engine schedules every
 * arrival up front, and faults add watchdog kills, retries and
 * fallback rescheduling on top. The two arrival forms must pop in the
 * exact same (when, seq) order through all of it.
 */
TEST(Differential, ChainedArrivalsMatchUpFrontArrivalsUnderFaults)
{
    for (int i = 0; i < 8; ++i) {
        Scenario s = fuzzScenario(kMasterSeed ^ 0xF00Du, i);
        s.mode = app::HarnessMode::AndroidApp;
        s.faults = true;
        s.dspLoadProcesses = 1;
        ASSERT_TRUE(scenarioValid(s));
        ASSERT_EQ(resultBytes(runScenario(s, sim::EngineMode::Reference)),
                  resultBytes(runScenario(s, sim::EngineMode::Fast)))
            << s.describe();
    }
}

TEST(SnapshotCache, FirstWinsAndCountsRaces)
{
    sweep::snapshotCacheClearForTest();
    auto first = std::make_shared<const int>(1);
    auto second = std::make_shared<const int>(2);
    EXPECT_EQ(sweep::snapshotCacheLookup("k"), nullptr);
    EXPECT_EQ(sweep::snapshotCacheStore("k", first), first);
    EXPECT_EQ(sweep::snapshotCacheStore("k", second), first);
    EXPECT_EQ(sweep::snapshotCacheLookup("k"), first);
    const auto stats = sweep::snapshotCacheStatsNow();
    EXPECT_EQ(stats.misses, 1u);
    EXPECT_EQ(stats.hits, 1u);
    EXPECT_EQ(stats.stores, 1u);
    EXPECT_EQ(stats.raceDiscards, 1u);
    sweep::snapshotCacheClearForTest();
}

// snapshotCacheResetStats starts a fresh counting window (per-sweep
// hit rates in aitax_cli --stats / sweep_throughput) without dropping
// the entries themselves — resetting between runs must not force the
// next run back through a warm-up miss.
TEST(SnapshotCache, ResetStatsKeepsEntries)
{
    sweep::snapshotCacheClearForTest();
    auto value = std::make_shared<const int>(7);
    sweep::snapshotCacheStore("k", value);
    EXPECT_EQ(sweep::snapshotCacheLookup("k"), value);
    EXPECT_EQ(sweep::snapshotCacheLookup("absent"), nullptr);

    sweep::snapshotCacheResetStats();
    auto zeroed = sweep::snapshotCacheStatsNow();
    EXPECT_EQ(zeroed.hits, 0u);
    EXPECT_EQ(zeroed.misses, 0u);
    EXPECT_EQ(zeroed.stores, 0u);
    EXPECT_EQ(zeroed.raceDiscards, 0u);

    // The entry survived: the next window records a hit, not a miss.
    EXPECT_EQ(sweep::snapshotCacheLookup("k"), value);
    const auto after = sweep::snapshotCacheStatsNow();
    EXPECT_EQ(after.hits, 1u);
    EXPECT_EQ(after.misses, 0u);
    sweep::snapshotCacheClearForTest();
}

} // namespace
} // namespace aitax::verify
