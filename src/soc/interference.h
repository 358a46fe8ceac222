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
 * start() fixes every arrival up front: a UI tick every period, the
 * daemon times drawn from their gaps, and one reserved FIFO seq band
 * per source, so each arrival's (when, seq) pair is known before any
 * fires. The Reference engine schedules them all at once, keeping the
 * event heap deep for the whole run. The Fast engine chains them:
 * one arrival is pending at a time, and each one, before it submits
 * its task, schedules the earlier of the next UI tick and the next
 * daemon arrival. Pop order, and thus every trace byte and RNG draw,
 * is the same on both engines; the differential tier compares them.
 */

#ifndef AITAX_SOC_INTERFERENCE_H
#define AITAX_SOC_INTERFERENCE_H

#include <cstdint>
#include <vector>

#include "sim/arena.h"
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

    /**
     * Schedule interference task arrivals up to @p horizon. Runs once
     * per generator.
     */
    void start(sim::TimeNs horizon);

    std::int64_t tasksInjected() const { return injected; }

  private:
    sim::Simulator &sim;
    OsScheduler &sched;
    InterferenceConfig cfg;
    sim::RandomStream rng;
    sim::Arena *arena_;
    std::int64_t injected = 0;
    trace::LabelId uiLabel_;
    trace::LabelId daemonLabel_;
    bool started_ = false;
    /** UI tick k = 0, 1, ... fires at (k + 1) periods, seq uiSeq_ + k. */
    std::uint64_t uiTicks_ = 0;
    std::uint64_t uiSeq_ = 0;
    /** Daemon arrival j is at daemonAt_[j] with seq daemonSeq_ + j. */
    std::vector<sim::TimeNs, sim::ArenaAllocator<sim::TimeNs>> daemonAt_;
    std::uint64_t daemonSeq_ = 0;
    /** Fast engine: the first UI tick and daemon arrival not chained. */
    std::uint64_t nextUi_ = 0;
    std::size_t nextDaemon_ = 0;

    sim::TimeNs
    uiTickAt(std::uint64_t k) const
    {
        return static_cast<sim::TimeNs>(k + 1) * cfg.uiPeriodNs;
    }

    /** Schedule the earlier unchained arrival by (when, seq), if any. */
    void chainNext();
    /** Submit the task of a UI tick (@p ui) or a daemon arrival. */
    void arrive(bool ui);
    void submitTask(const char *name, trace::LabelId label,
                    double mean_ops, bool background);
};

} // namespace aitax::soc

#endif // AITAX_SOC_INTERFERENCE_H
