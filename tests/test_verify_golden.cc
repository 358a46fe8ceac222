/**
 * @file
 * Golden-trace regression tier.
 *
 * Replays every committed scenario under tests/golden/ and compares
 * the per-stage tax breakdown against its snapshot within per-metric
 * relative tolerances. Rebuild the snapshots with
 * `cmake -DAITAX_UPDATE_GOLDEN=ON` + rerunning this test, or with
 * `aitax_cli verify --update`.
 */

#include <gtest/gtest.h>

#include <cmath>
#include <limits>
#include <set>

#include <unistd.h>

#include "verify/golden.h"

#ifndef AITAX_GOLDEN_DIR
#define AITAX_GOLDEN_DIR "tests/golden"
#endif

namespace aitax::verify {
namespace {

std::string
goldenPath(const Scenario &s)
{
    return std::string(AITAX_GOLDEN_DIR) + "/" + goldenFileName(s);
}

class GoldenScenario : public ::testing::TestWithParam<int>
{
  protected:
    const Scenario &
    scenario() const
    {
        return goldenScenarios()[static_cast<std::size_t>(GetParam())];
    }
};

TEST_P(GoldenScenario, MatchesCommittedSnapshot)
{
    const Scenario &s = scenario();
    ASSERT_TRUE(scenarioValid(s)) << s.describe();
    const auto result = runScenario(s);
    const auto actual = snapshot(s, result);

#ifdef AITAX_UPDATE_GOLDEN
    ASSERT_TRUE(writeGoldenFile(goldenPath(s), actual))
        << "cannot write " << goldenPath(s);
    GTEST_SKIP() << "recorded " << goldenPath(s);
#else
    GoldenSnapshot expected;
    std::string error;
    ASSERT_TRUE(readGoldenFile(goldenPath(s), expected, error))
        << error << " — regenerate with -DAITAX_UPDATE_GOLDEN=ON or "
        << "`aitax_cli verify --update`";
    EXPECT_EQ(expected.scenario, actual.scenario);
    const auto diffs = compare(expected, actual);
    for (const auto &d : diffs)
        ADD_FAILURE() << s.label() << ": " << d.metric << " expected "
                      << d.expected << " got " << d.actual
                      << " (rel err " << d.relError * 100.0 << "%)";
#endif
}

INSTANTIATE_TEST_SUITE_P(
    AllSnapshots, GoldenScenario,
    ::testing::Range(0, static_cast<int>(goldenScenarios().size())),
    [](const auto &info) {
        return goldenScenarios()[static_cast<std::size_t>(info.param)]
            .label();
    });

// --- snapshot scope ------------------------------------------------------

TEST(GoldenSet, CoversChipsetsModelsModesAndFrameworks)
{
    std::set<std::string> socs, model_ids;
    std::set<int> modes, frameworks;
    for (const auto &s : goldenScenarios()) {
        socs.insert(s.socName);
        model_ids.insert(s.modelId);
        modes.insert(static_cast<int>(s.mode));
        frameworks.insert(static_cast<int>(s.framework));
    }
    EXPECT_EQ(socs.size(), 4u);        // every Table II chipset
    EXPECT_GE(model_ids.size(), 8u);   // >= 8 of the 11 Table I models
    EXPECT_EQ(modes.size(), 3u);       // every harness mode
    EXPECT_EQ(frameworks.size(), 5u);  // every framework path
}

// --- serialization -------------------------------------------------------

TEST(GoldenJson, RoundTripIsBitIdentical)
{
    const Scenario &s = goldenScenarios().front();
    const auto g = snapshot(s, runScenario(s));
    const std::string json = toJson(g);

    GoldenSnapshot parsed;
    std::string error;
    ASSERT_TRUE(fromJson(json, parsed, error)) << error;
    EXPECT_EQ(parsed.scenario, g.scenario);
    ASSERT_EQ(parsed.metrics.size(), g.metrics.size());
    for (const auto &[key, value] : g.metrics) {
        ASSERT_TRUE(parsed.metrics.count(key)) << key;
        // %.17g round-trips doubles exactly.
        EXPECT_EQ(parsed.metrics.at(key), value) << key;
    }
    EXPECT_EQ(toJson(parsed), json);
}

TEST(GoldenJson, FailedWriteReturnsFalse)
{
    // /dev/full opens but fails every write; the JSON fits in the
    // stream's buffer, so the failure only shows when it is flushed.
    if (access("/dev/full", W_OK) != 0)
        GTEST_SKIP() << "no writable /dev/full";
    const Scenario &s = goldenScenarios().front();
    EXPECT_FALSE(writeGoldenFile("/dev/full", snapshot(s, runScenario(s))));
}

TEST(GoldenJson, ParserRejectsMalformedInput)
{
    GoldenSnapshot out;
    std::string error;
    EXPECT_FALSE(fromJson("", out, error));
    EXPECT_FALSE(fromJson("{", out, error));
    EXPECT_FALSE(fromJson("{\"scenario\": \"x\"}", out, error));
    EXPECT_FALSE(
        fromJson("{\"schema\": 99, \"scenario\": \"x\", "
                 "\"metrics\": {}}",
                 out, error));
    EXPECT_NE(error.find("schema"), std::string::npos);
    EXPECT_FALSE(fromJson("{\"schema\": 1, \"scenario\": \"x\", "
                          "\"metrics\": {\"a\": }}",
                          out, error));
    // Truncated file (e.g. interrupted write).
    const Scenario &s = goldenScenarios().front();
    const std::string json = toJson(snapshot(s, runScenario(s)));
    EXPECT_FALSE(fromJson(json.substr(0, json.size() / 2), out, error));
}

// --- comparison ----------------------------------------------------------

TEST(GoldenCompare, FivePercentStagePerturbationIsCaught)
{
    const Scenario &s = goldenScenarios().front();
    const auto expected = snapshot(s, runScenario(s));

    auto perturbed = expected;
    perturbed.metrics["stage_inference_mean_ms"] *= 1.05;
    const auto diffs = compare(expected, perturbed);
    ASSERT_EQ(diffs.size(), 1u);
    EXPECT_EQ(diffs[0].metric, "stage_inference_mean_ms");
    EXPECT_NEAR(diffs[0].relError, 0.05, 1e-9);
}

TEST(GoldenCompare, WithinToleranceWobblePasses)
{
    const Scenario &s = goldenScenarios().front();
    const auto expected = snapshot(s, runScenario(s));
    auto wobbled = expected;
    for (auto &[key, value] : wobbled.metrics)
        value *= 1.004; // 0.4% — cross-toolchain noise territory
    EXPECT_TRUE(compare(expected, wobbled).empty());
}

TEST(GoldenCompare, MissingAndExtraMetricsAreDiffs)
{
    GoldenSnapshot expected;
    expected.scenario = "x";
    expected.metrics["a"] = 1.0;
    expected.metrics["b"] = 2.0;
    GoldenSnapshot actual;
    actual.scenario = "x";
    actual.metrics["a"] = 1.0;
    actual.metrics["c"] = 3.0;
    const auto diffs = compare(expected, actual);
    ASSERT_EQ(diffs.size(), 2u);
    for (const auto &d : diffs)
        EXPECT_TRUE(std::isinf(d.relError)) << d.metric;
}

TEST(GoldenCompare, PerMetricToleranceOverridesDefault)
{
    GoldenSnapshot expected;
    expected.scenario = "x";
    expected.metrics["loose"] = 100.0;
    expected.metrics["tight"] = 100.0;
    GoldenSnapshot actual = expected;
    actual.metrics["loose"] = 108.0;
    actual.metrics["tight"] = 108.0;
    CompareOptions opts;
    opts.perMetricTol["loose"] = 0.10;
    const auto diffs = compare(expected, actual, opts);
    ASSERT_EQ(diffs.size(), 1u);
    EXPECT_EQ(diffs[0].metric, "tight");
}

} // namespace
} // namespace aitax::verify
