/**
 * @file
 * Background system activity generator.
 *
 * Real applications never run on a quiet system: UI rendering, binder
 * transactions and system daemons share the CPU complex. This module
 * injects that activity, producing the wide app-mode latency
 * distributions of Fig 11 (run-to-run variability) in contrast to the
 * tight benchmark-mode distributions.
 *
 * Arrivals flow through a sim::LocalEventQueue with one FIFO stream
 * per source (UI ticks, daemons). The Reference engine pre-schedules
 * every arrival into the global heap — thousands of entries that keep
 * the 4-ary heap deep for the entire run (profiling showed heap sift
 * work at ~50% of sweep time). The Fast engine parks arrivals locally
 * and keeps only the component's earliest entry resident in the heap;
 * every arrival still carries the exact (when, seq) pair the Reference
 * engine would have assigned (seqs are reserved at push time), so pop
 * order — and thus every trace byte and RNG draw — is unchanged.
 */

#ifndef AITAX_SOC_INTERFERENCE_H
#define AITAX_SOC_INTERFERENCE_H

#include <cstdint>

#include "sim/arena.h"
#include "sim/local_queue.h"
#include "sim/random.h"
#include "sim/simulator.h"
#include "soc/scheduler.h"

namespace aitax::soc {

/** Interference intensity knobs. */
struct InterferenceConfig
{
    bool enabled = true;
    /** UI/compositor tick (60 Hz frame handling). */
    sim::DurationNs uiPeriodNs = sim::usToNs(16667.0);
    /** Mean UI work per tick (scalar ops). */
    double uiOps = 2.0e6;
    /** Mean rate of short daemon/binder tasks, per second. */
    double daemonRatePerSec = 30.0;
    /** Mean daemon task work (scalar ops). */
    double daemonOps = 1.5e6;
    /** Log-normal sigma applied to every injected task's work. */
    double jitterSigma = 0.45;
};

/**
 * Periodically submits interference tasks to the scheduler.
 */
class InterferenceGenerator
{
  public:
    /**
     * @param tracer optional; when given, the fixed task names are
     * interned once so injected tasks trace without re-interning.
     * @param arena optional per-run arena for injected tasks.
     */
    InterferenceGenerator(sim::Simulator &sim, OsScheduler &sched,
                          InterferenceConfig cfg, sim::RandomStream rng,
                          trace::Tracer *tracer = nullptr,
                          sim::Arena *arena = nullptr);

    /** Schedule interference task arrivals up to @p horizon. */
    void start(sim::TimeNs horizon);

    std::int64_t tasksInjected() const { return injected; }

  private:
    /** LocalEventQueue stream per arrival source. */
    static constexpr std::size_t kUiStream = 0;
    static constexpr std::size_t kDaemonStream = 1;
    static constexpr std::size_t kStreamCount = 2;

    sim::Simulator &sim;
    OsScheduler &sched;
    InterferenceConfig cfg;
    sim::RandomStream rng;
    sim::Arena *arena_;
    sim::LocalEventQueue queue_;
    std::int64_t injected = 0;
    trace::LabelId uiLabel_;
    trace::LabelId daemonLabel_;

    void submitTask(const char *name, trace::LabelId label,
                    double mean_ops, bool background);
};

} // namespace aitax::soc

#endif // AITAX_SOC_INTERFERENCE_H
