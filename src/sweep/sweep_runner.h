/**
 * @file
 * Parallel scenario-sweep engine.
 *
 * Every figure in the paper is a sweep — models x chipsets x
 * frameworks x harness modes x seeds — of *independent* simulations.
 * SweepRunner executes those scenarios on a thread pool with one
 * shared work queue while preserving the serial contract: results
 * come back in submission (index) order, and each job owns its whole
 * world (a private SocSystem, RNG and tracer constructed inside the
 * job), so output is byte-identical for --jobs 1 and --jobs N.
 *
 * Determinism contract: parallelism is *across* simulations, never
 * inside one. A job must not touch mutable global state; the shared
 * setup caches (models::cachedGraph, app::cachedEngine) are safe
 * because each entry is immutable once built, and they are
 * process-wide, so it does not matter which thread runs which index.
 */

#ifndef AITAX_SWEEP_SWEEP_RUNNER_H
#define AITAX_SWEEP_SWEEP_RUNNER_H

#include <cstddef>
#include <functional>
#include <optional>
#include <utility>
#include <vector>

namespace aitax::sweep {

/**
 * Resolve a worker-count request: values >= 1 pass through; 0 (the
 * "default" sentinel) falls back to the AITAX_JOBS environment
 * variable if set and >= 1, else std::thread::hardware_concurrency().
 * AITAX_JOBS must be one whole number (stats::parseWhole); a malformed
 * value prints a usage error and exits 2.
 */
int effectiveJobs(int requested);

/**
 * Parse a `--jobs N` flag out of (argc, argv), removing it from the
 * vector. N must be one whole number (stats::parseWhole); a missing
 * or malformed value prints a usage error and exits 2.
 * @return the resolved worker count (effectiveJobs applied).
 * Unknown arguments are left untouched for the caller.
 */
int consumeJobsFlag(int &argc, char **argv);

/**
 * Thread pool for embarrassingly parallel scenario sweeps.
 *
 * Workers claim indices [0, count) one at a time from a shared atomic
 * cursor, so whichever worker is idle takes the next index and no
 * worker sits idle while work is left. With jobs() == 1 the sweep
 * executes inline on the calling thread — no pool, identical code
 * path to the pre-parallel harnesses.
 */
class SweepRunner
{
  public:
    /** @param jobs worker count; <= 0 resolves via effectiveJobs(0). */
    explicit SweepRunner(int jobs = 0);

    int jobs() const { return jobs_; }

    /**
     * Run fn(0) .. fn(count-1), collecting results in index order.
     * The first exception thrown by any job is rethrown on the caller
     * after all workers stop.
     */
    template <typename R>
    std::vector<R>
    map(std::size_t count, const std::function<R(std::size_t)> &fn)
    {
        std::vector<std::optional<R>> slots(count);
        forEach(count,
                [&](std::size_t i) { slots[i].emplace(fn(i)); });
        std::vector<R> out;
        out.reserve(count);
        for (auto &s : slots)
            out.push_back(std::move(*s));
        return out;
    }

    /** Run fn over [0, count); completion only, no results. */
    void forEach(std::size_t count,
                 const std::function<void(std::size_t)> &fn);

  private:
    int jobs_;
};

} // namespace aitax::sweep

#endif // AITAX_SWEEP_SWEEP_RUNNER_H
