/**
 * @file
 * Fleet-scale campaign verification (ctest -L verify).
 *
 * Proves the determinism contract one level above the thread pool:
 * the campaign aggregate report is byte-identical at any
 * --shards N x --jobs M split, survives a mid-campaign worker crash
 * (chunk re-dispatch) and a coordinator interruption + --resume with
 * the same bytes, and the mergeable StreamingDistribution sketch that
 * makes online aggregation possible is merge-order independent and
 * within its documented error of the sample-retaining Distribution.
 *
 * Campaigns here drive the real aitax_cli `sweep-serve` worker over
 * the real fork/exec pipe protocol (AITAX_CLI_PATH is baked in by the
 * build), so what this suite passes is what production campaigns run.
 * Manifests carry this process's pid (tempPath), so two test processes
 * running at once never share one.
 */

#include <gtest/gtest.h>

#include <cstdio>
#include <cstdlib>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include <sys/wait.h>
#include <unistd.h>

#include "sim/random.h"
#include "stats/distribution.h"
#include "stats/streaming_distribution.h"
#include "sweep/campaign.h"

namespace aitax {
namespace {

// --- StreamingDistribution: merge algebra and error bound ------------

/** Seeded latency-shaped samples (lognormal around ~30 ms). */
std::vector<double>
seededSamples(std::uint64_t seed, int n)
{
    sim::RandomStream rng(seed, "campaign-test");
    std::vector<double> out;
    out.reserve(static_cast<std::size_t>(n));
    for (int i = 0; i < n; ++i)
        out.push_back(30.0 * rng.lognormalFactor(0.5));
    return out;
}

stats::StreamingDistribution
sketchOf(const std::vector<double> &xs)
{
    stats::StreamingDistribution d;
    for (double x : xs)
        d.add(x);
    return d;
}

TEST(StreamingDistribution, MergeIsAssociativeAndCommutative)
{
    const auto a = sketchOf(seededSamples(1, 400));
    const auto b = sketchOf(seededSamples(2, 700));
    const auto c = sketchOf(seededSamples(3, 150));

    // (a + b) + c
    stats::StreamingDistribution abc = a;
    abc.merge(b);
    abc.merge(c);
    // a + (b + c)
    stats::StreamingDistribution bc = b;
    bc.merge(c);
    stats::StreamingDistribution a_bc = a;
    a_bc.merge(bc);
    // c + b + a
    stats::StreamingDistribution cba = c;
    cba.merge(b);
    cba.merge(a);

    // Counters are exactly merge-order independent: count, extremes
    // and every percentile. The moment sums are only FP-commutative
    // (which is why the campaign merges in canonical chunk order for
    // byte-stable reports) — near, not bit-equal, across orders.
    for (const auto *other : {&a_bc, &cba}) {
        EXPECT_EQ(abc.count(), other->count());
        EXPECT_EQ(abc.min(), other->min());
        EXPECT_EQ(abc.max(), other->max());
        for (double p : {1.0, 25.0, 50.0, 90.0, 99.0})
            EXPECT_EQ(abc.percentile(p), other->percentile(p))
                << "p" << p;
        EXPECT_NEAR(abc.sum(), other->sum(), abc.sum() * 1e-12);
    }
    EXPECT_EQ(abc.count(), 1250u);

    // Same merge order twice IS bit-identical — the property the
    // campaign's canonical chunk-order merging relies on.
    stats::StreamingDistribution abc2 = a;
    abc2.merge(b);
    abc2.merge(c);
    EXPECT_TRUE(abc.identicalTo(abc2));

    // Merging mirrors adding every sample to one sketch.
    std::vector<double> all = seededSamples(1, 400);
    for (double x : seededSamples(2, 700))
        all.push_back(x);
    for (double x : seededSamples(3, 150))
        all.push_back(x);
    const auto whole = sketchOf(all);
    EXPECT_EQ(whole.count(), abc.count());
    EXPECT_EQ(whole.min(), abc.min());
    EXPECT_EQ(whole.max(), abc.max());
    for (double p : {1.0, 25.0, 50.0, 90.0, 99.0})
        EXPECT_EQ(whole.percentile(p), abc.percentile(p)) << "p" << p;
}

TEST(StreamingDistribution, WithinDocumentedErrorOfExactDistribution)
{
    const auto xs = seededSamples(42, 10000);
    stats::Distribution exact;
    stats::StreamingDistribution sketch;
    for (double x : xs) {
        exact.add(x);
        sketch.add(x);
    }

    // Extremes and count are exact; the mean agrees up to summation
    // order (Distribution's accumulator may sum in a different
    // association than the sketch's running sum).
    EXPECT_EQ(sketch.count(), 10000u);
    EXPECT_NEAR(sketch.mean(), exact.mean(),
                exact.mean() * 1e-9);
    EXPECT_EQ(sketch.min(), exact.min());
    EXPECT_EQ(sketch.max(), exact.max());

    // Quantiles: the sketch answers with a value within
    // kRelativeAccuracy of a sample whose rank is exact; the exact
    // Distribution interpolates between adjacent order statistics, so
    // allow twice the sketch's own bound to cover that gap.
    const double tol = 2.0 * stats::StreamingDistribution::kRelativeAccuracy;
    for (double p : {1.0, 5.0, 10.0, 25.0, 50.0, 75.0, 90.0, 95.0, 99.0}) {
        const double e = exact.percentile(p);
        const double s = sketch.percentile(p);
        EXPECT_NEAR(s, e, e * tol) << "p" << p;
    }
}

TEST(StreamingDistribution, SerializeRoundTripsBitExactly)
{
    const auto d = sketchOf(seededSamples(9, 2000));
    stats::StreamingDistribution back;
    std::string err;
    ASSERT_TRUE(stats::StreamingDistribution::deserialize(d.serialize(),
                                                          back, &err))
        << err;
    EXPECT_TRUE(back.identicalTo(d));
    EXPECT_EQ(back.serialize(), d.serialize());

    stats::StreamingDistribution empty;
    ASSERT_TRUE(stats::StreamingDistribution::deserialize(
        empty.serialize(), back, &err))
        << err;
    EXPECT_TRUE(back.identicalTo(empty));

    EXPECT_FALSE(
        stats::StreamingDistribution::deserialize("sd2 c=1", back, &err));
    EXPECT_FALSE(stats::StreamingDistribution::deserialize(
        "sd1 c=2 s=1 q=1 lo=1 hi=1 b=0:1", back, &err))
        << "bucket total disagreeing with count must be rejected";
}

TEST(StreamingDistribution, DeserializeEveryPrefixIsSafe)
{
    // A torn sd1 line (a crash mid-write, a short frame) must be
    // refused, or parse to the sketch it was cut from; it must never
    // read past its own text. Under ASan the parser's copy of each
    // prefix is an exact-size heap block, so an over-read trips here.
    const auto d = sketchOf(seededSamples(9, 2000));
    const std::string line = d.serialize();
    for (std::size_t n = 0; n <= line.size(); ++n) {
        stats::StreamingDistribution back;
        std::string err;
        if (stats::StreamingDistribution::deserialize(
                std::string_view(line).substr(0, n), back, &err))
            EXPECT_TRUE(back.identicalTo(d)) << "prefix of " << n;
        else
            EXPECT_FALSE(err.empty()) << "prefix of " << n;
    }
    stats::StreamingDistribution whole;
    EXPECT_TRUE(stats::StreamingDistribution::deserialize(line, whole));
}

// --- Campaigns over the real sweep-serve worker ----------------------

#ifndef AITAX_CLI_PATH
#error "build must define AITAX_CLI_PATH"
#endif
#ifndef AITAX_SWEEP_THROUGHPUT_PATH
#error "build must define AITAX_SWEEP_THROUGHPUT_PATH"
#endif

constexpr int kScenarios = 48;
constexpr int kChunk = 8;
constexpr std::uint64_t kSeed = 77;

sweep::CampaignConfig
campaignConfig(int shards, int jobs)
{
    sweep::CampaignConfig cfg;
    cfg.scenarios = kScenarios;
    cfg.chunk = kChunk;
    cfg.shards = shards;
    cfg.identity = "corpus=fuzz seed=" + std::to_string(kSeed) +
                   " scenarios=" + std::to_string(kScenarios) +
                   " chunk=" + std::to_string(kChunk) +
                   " faults=0 engine=fast";
    // The worker binds its corpus from this line alone.
    cfg.corpusSpec = cfg.identity;
    cfg.workerCmd = {AITAX_CLI_PATH, "sweep-serve", "--jobs",
                     std::to_string(jobs)};
    return cfg;
}

/** A per-process temp file name: concurrent runs never collide. */
std::string
tempPath(const std::string &name)
{
    return testing::TempDir() + "aitax_" + std::to_string(getpid()) +
           "_" + name;
}

std::string
reportOf(const sweep::CampaignSummary &sum,
         const sweep::CampaignConfig &cfg)
{
    return sweep::campaignReportJson(cfg.identity, sum.aggregate);
}

/** The uninterrupted single-process reference report. */
const std::string &
baselineReport()
{
    static const std::string report = [] {
        const auto cfg = campaignConfig(1, 1);
        const auto sum = sweep::runCampaign(cfg);
        EXPECT_EQ(sum.status, sweep::CampaignStatus::Ok) << sum.error;
        return reportOf(sum, cfg);
    }();
    return report;
}

TEST(Campaign, AggregateByteIdenticalAcrossShardAndJobSplits)
{
    const std::string &base = baselineReport();
    ASSERT_FALSE(base.empty());
    for (const int shards : {2, 4}) {
        for (const int jobs : {1, 8}) {
            const auto cfg = campaignConfig(shards, jobs);
            const auto sum = sweep::runCampaign(cfg);
            ASSERT_EQ(sum.status, sweep::CampaignStatus::Ok)
                << sum.error;
            EXPECT_EQ(reportOf(sum, cfg), base)
                << "shards=" << shards << " jobs=" << jobs;
            EXPECT_EQ(sum.chunksRun, kScenarios / kChunk);
        }
    }
}

TEST(Campaign, WorkerCrashIsReDispatchedByteExactly)
{
    auto cfg = campaignConfig(2, 1);
    cfg.killWorkerAfterRanges = 2; // worker 0 dies on its 2nd chunk
    const auto sum = sweep::runCampaign(cfg);
    ASSERT_EQ(sum.status, sweep::CampaignStatus::Ok) << sum.error;
    EXPECT_GE(sum.workersLost, 1);
    EXPECT_GE(sum.chunksRedispatched, 1);
    EXPECT_EQ(reportOf(sum, cfg), baselineReport());
}

TEST(Campaign, InterruptAndResumeReproducesBytes)
{
    // Interrupt at several different chunk frontiers; every resumed
    // completion must reproduce the uninterrupted bytes.
    for (const int stop_after : {1, 3}) {
        const std::string manifest = tempPath(
            "campaign_resume_" + std::to_string(stop_after) + ".txt");
        std::remove(manifest.c_str());

        auto cfg = campaignConfig(2, 1);
        cfg.checkpointPath = manifest;
        cfg.stopAfterChunks = stop_after;
        const auto interrupted = sweep::runCampaign(cfg);
        ASSERT_EQ(interrupted.status, sweep::CampaignStatus::Interrupted)
            << interrupted.error;
        EXPECT_GE(interrupted.chunksRun, stop_after);
        EXPECT_LT(interrupted.chunksRun, kScenarios / kChunk);

        auto resume_cfg = campaignConfig(2, 1);
        resume_cfg.checkpointPath = manifest;
        resume_cfg.resume = true;
        resume_cfg.stopAfterChunks = -1;
        const auto resumed = sweep::runCampaign(resume_cfg);
        ASSERT_EQ(resumed.status, sweep::CampaignStatus::Ok)
            << resumed.error;
        EXPECT_EQ(resumed.chunksResumed, interrupted.chunksRun);
        EXPECT_EQ(resumed.chunksRun + resumed.chunksResumed,
                  kScenarios / kChunk);
        EXPECT_EQ(reportOf(resumed, resume_cfg), baselineReport())
            << "stop_after=" << stop_after;
        std::remove(manifest.c_str());
    }
}

TEST(Campaign, ResumeRejectsForeignManifest)
{
    const std::string manifest = tempPath("campaign_foreign.txt");
    std::remove(manifest.c_str());

    auto cfg = campaignConfig(1, 1);
    cfg.checkpointPath = manifest;
    cfg.stopAfterChunks = 1;
    ASSERT_EQ(sweep::runCampaign(cfg).status,
              sweep::CampaignStatus::Interrupted);

    // Same manifest, different campaign identity: must refuse rather
    // than silently merge another campaign's partials.
    auto other = campaignConfig(1, 1);
    other.identity = "corpus=fuzz seed=78 scenarios=48 chunk=8 "
                     "faults=0 engine=fast";
    other.checkpointPath = manifest;
    other.resume = true;
    const auto sum = sweep::runCampaign(other);
    EXPECT_EQ(sum.status, sweep::CampaignStatus::Error);
    EXPECT_NE(sum.error.find("different campaign"), std::string::npos)
        << sum.error;
    std::remove(manifest.c_str());
}

TEST(Campaign, AggregateSerializationRoundTrips)
{
    sweep::CampaignAggregate agg;
    for (int i = 0; i < 100; ++i) {
        sweep::ScenarioOutcome o;
        o.e2eMeanMs = 10.0 + static_cast<double>(i) * 0.37;
        o.events = 1000 + static_cast<std::uint64_t>(i);
        agg.addScenario(o);
    }
    sweep::CampaignAggregate back;
    std::string err;
    ASSERT_TRUE(sweep::CampaignAggregate::deserialize(agg.serialize(),
                                                      back, &err))
        << err;
    EXPECT_EQ(back.serialize(), agg.serialize());
    EXPECT_EQ(back.scenarios, agg.scenarios);
    EXPECT_EQ(back.events, agg.events);
    EXPECT_EQ(back.checksumMs, agg.checksumMs);
    EXPECT_TRUE(back.latencyMs.identicalTo(agg.latencyMs));
}

TEST(CampaignSpec, SplitsKeyValueTokensInOrder)
{
    using Fields = std::vector<std::pair<std::string, std::string>>;
    EXPECT_EQ(sweep::splitSpec("corpus=fuzz  seed=7 bare chunk= a=b=c"),
              (Fields{{"corpus", "fuzz"},
                      {"seed", "7"},
                      {"chunk", ""},
                      {"a", "b=c"}}));
    EXPECT_TRUE(sweep::splitSpec("").empty());
    EXPECT_TRUE(sweep::splitSpec("no tokens here").empty());
}

TEST(CampaignSpec, NumbersMustConsumeTheWholeValue)
{
    std::string err;
    std::uint64_t seed = 99;
    EXPECT_TRUE(sweep::parseSpecNumber("seed", "18446744073709551615",
                                       seed, &err));
    EXPECT_EQ(seed, 18446744073709551615ull);
    int n = 0;
    EXPECT_TRUE(sweep::parseSpecNumber("scenarios", "-3", n, &err));
    EXPECT_EQ(n, -3);

    for (const char *bad : {"12abc", "-1", "", "+5", "0x10", "1.5",
                            "18446744073709551616"}) {
        seed = 99;
        err.clear();
        EXPECT_FALSE(sweep::parseSpecNumber("seed", bad, seed, &err))
            << bad;
        EXPECT_EQ(seed, 99u) << bad;
        EXPECT_NE(err.find("seed="), std::string::npos) << err;
    }
    for (const char *bad : {"64x", "2147483648", "", "1e3"}) {
        n = 7;
        EXPECT_FALSE(sweep::parseSpecNumber("runs", bad, n, &err)) << bad;
        EXPECT_EQ(n, 7) << bad;
    }
}

// --- aitax_cli numeric flags ----------------------------------------

/** Exit status of shell command @p cmd (output discarded); -1 if killed. */
int
exitStatus(const std::string &cmd)
{
    const int status = std::system((cmd + " >/dev/null 2>&1").c_str());
    return WIFEXITED(status) ? WEXITSTATUS(status) : -1;
}

/** Exit status of `[env] aitax_cli <args>`. */
int
cliExitStatus(const std::string &args, const std::string &env = "")
{
    return exitStatus(env + (env.empty() ? "" : " ") + AITAX_CLI_PATH +
                      " " + args);
}

TEST(CampaignCli, MalformedNumericFlagsAreUsageErrors)
{
    // Every numeric flag must be one whole number, as in a campaign
    // spec; a malformed value is the subcommand's usage error (exit 2)
    // instead of whatever prefix std::atoi/atof would have read.
    EXPECT_EQ(cliExitStatus("campaign --scenarios 64x"), 2);
    EXPECT_EQ(cliExitStatus("campaign --scenarios 8 --worker-deadline 5s"),
              2);
    EXPECT_EQ(cliExitStatus("campaign --scenarios 8 --seed -1"), 2);
    EXPECT_EQ(cliExitStatus("sweep-serve --jobs 1x"), 2);
    EXPECT_EQ(cliExitStatus("sweep-serve --exit-after abc"), 2);
    EXPECT_EQ(cliExitStatus("serve --listen 0 --accept 0 --jobs 1x"), 2);
    EXPECT_EQ(cliExitStatus("--runs 3x"), 2);
    // An unknown platform or engine is a usage error too, not an abort.
    EXPECT_EQ(cliExitStatus("--soc nosuch --runs 2"), 2);
    EXPECT_EQ(cliExitStatus("campaign --scenarios 8 --engine warp"), 2);
    EXPECT_EQ(cliExitStatus("verify --fuzz 0 --engine warp"), 2);
    // Well-formed values still parse (no connection is accepted).
    EXPECT_EQ(cliExitStatus("serve --listen 0 --accept 0 --jobs 1"), 0);
}

TEST(CampaignCli, MalformedJobCountsAreUsageErrors)
{
    // AITAX_JOBS is read as strictly as --jobs: "abc" used to mean
    // every core and "3x" three workers.
    EXPECT_EQ(cliExitStatus("verify --fuzz 2", "AITAX_JOBS=abc"), 2);
    EXPECT_EQ(cliExitStatus("verify --fuzz 2", "AITAX_JOBS=3x"), 2);
    const std::string throughput = AITAX_SWEEP_THROUGHPUT_PATH;
    EXPECT_EQ(exitStatus(throughput + " --scenarios 2x --runs 1 --jobs 1"),
              2);
    EXPECT_EQ(exitStatus(throughput + " --scenarios 2 --runs 1y --jobs 1"),
              2);
    EXPECT_EQ(exitStatus(throughput + " --scenarios 2 --runs 1 --jobs 1z"),
              2);
    EXPECT_EQ(exitStatus(throughput + " --serve --jobs 1x"), 2);
    EXPECT_EQ(exitStatus(throughput + " --serve --exit-after abc"), 2);
}

TEST(CampaignCli, FailedOutputWritesExitOne)
{
    // /dev/full opens but fails every write: the CLI must report
    // "cannot write" and exit 1 instead of claiming the file is written.
    if (access("/dev/full", W_OK) != 0)
        GTEST_SKIP() << "no writable /dev/full";
    EXPECT_EQ(cliExitStatus("--runs 2 --chrome-trace /dev/full"), 1);
    EXPECT_EQ(cliExitStatus("campaign --scenarios 8 --shards 1 --jobs 1 "
                            "--out /dev/full"),
              1);
}

} // namespace
} // namespace aitax
