/**
 * @file
 * Shared helpers for the figure/table reproduction harnesses.
 *
 * Each bench binary regenerates one table or figure from the paper:
 * it runs the simulated experiment and prints the same rows/series the
 * paper reports, plus the expected qualitative shape.
 *
 * Harnesses sweep independent configurations, so the batch entry
 * point (runSpecs) executes them on the shared sweep pool; results
 * come back in submission order, so tables are byte-identical for
 * --jobs 1 and --jobs N (see docs/PERFORMANCE.md).
 */

#ifndef AITAX_BENCH_BENCH_COMMON_H
#define AITAX_BENCH_BENCH_COMMON_H

#include <cstdio>
#include <string>
#include <vector>

#include "core/analyzer.h"
#include "soc/chipsets.h"
#include "stats/table.h"
#include "sweep/sweep_runner.h"
#include "verify/scenario.h"

namespace aitax::bench {

/** Runs per configuration; the paper performs 500 model invocations. */
constexpr int kRuns = 500;

/**
 * A scenario with the harness defaults: MobileNet v1 fp32 on the
 * TFLite CPU path of the Snapdragon 845, run by the CLI benchmark
 * utility for kRuns invocations from seed 7.
 */
inline verify::Scenario
benchScenario()
{
    verify::Scenario s;
    s.mode = app::HarnessMode::CliBenchmark;
    s.runs = kRuns;
    s.seed = 7;
    return s;
}

/** The harness-wide worker count (set by initBench / --jobs). */
inline int &
jobsSlot()
{
    static int jobs = 0; // 0: resolve lazily via effectiveJobs
    return jobs;
}

inline int
benchJobs()
{
    return sweep::effectiveJobs(jobsSlot());
}

/**
 * Parse harness-wide flags (--jobs N) out of argv. Call first thing
 * in main(); unrecognized arguments are preserved.
 */
inline void
initBench(int &argc, char **argv)
{
    jobsSlot() = sweep::consumeJobsFlag(argc, argv);
}

/**
 * Run a batch of independent scenarios on the sweep pool through
 * verify::runScenario (Fast engine, Outputs::Summary). Results are in
 * submission order regardless of the worker count.
 */
inline std::vector<core::TaxReport>
runSpecs(const std::vector<verify::Scenario> &specs)
{
    sweep::SweepRunner runner(benchJobs());
    return runner.map<core::TaxReport>(specs.size(), [&](std::size_t i) {
        return verify::runScenario(specs[i], sim::EngineMode::Fast,
                                   verify::Outputs::Summary)
            .report;
    });
}

/** Print a section heading with the paper reference. */
inline void
heading(const char *what, const char *paper_ref, const char *shape)
{
    std::printf("\n================================================="
                "=============================\n");
    std::printf("%s\n", what);
    std::printf("Reproduces: %s\n", paper_ref);
    std::printf("Expected shape: %s\n", shape);
    std::printf("==================================================="
                "===========================\n\n");
}

inline std::string
fmtMs(double ms)
{
    return stats::Table::num(ms, 2);
}

} // namespace aitax::bench

#endif // AITAX_BENCH_BENCH_COMMON_H
