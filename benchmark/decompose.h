/**
 * @file
 * A measurement-only copy of verify::runScenario (Fast engine), built
 * from public calls so that each layer's host time can be read off
 * separately. It must produce exactly what runScenario produces; the
 * traced run checks that byte for byte, and verify.unexplained_s shows
 * any runner work this copy no longer mirrors. Delete it once the
 * program records its own spans.
 */

#ifndef AITAX_BENCHMARK_DECOMPOSE_H
#define AITAX_BENCHMARK_DECOMPOSE_H

#include <cstddef>
#include <cstdint>
#include <vector>

#include "verify/scenario.h"

namespace aitax::bench {

/** One timed child of a scenario span. */
struct Step
{
    /** Per-layer metric the step adds to, e.g. "sim.loop". */
    const char *layer;
    std::int64_t beginNs = 0;
    std::int64_t endNs = 0;
};

/** Layer timings and counts of one decomposed scenario run. */
struct Decomposition
{
    std::int64_t beginNs = 0;
    std::int64_t endNs = 0;
    /** Children in execution order; they never overlap. */
    std::vector<Step> steps;
    std::uint64_t frontCacheHits = 0;
    std::size_t jsonBytes = 0;
    std::size_t arenaHighWaterBytes = 0;
    bool warmupRestored = false;
    bool warmupCaptured = false;
};

/** Run @p s as verify::runScenario(s) does, timing every layer. */
verify::ScenarioResult decomposeScenario(const verify::Scenario &s,
                                         Decomposition &d);

} // namespace aitax::bench

#endif // AITAX_BENCHMARK_DECOMPOSE_H
