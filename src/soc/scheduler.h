/**
 * @file
 * OS CPU scheduler model.
 *
 * A round-robin, time-sliced scheduler over a big.LITTLE core complex,
 * with per-dispatch context-switch cost and a cache-warmup penalty on
 * core migration. This is deliberately simpler than CFS but reproduces
 * the behaviours the paper attributes to the Android scheduler:
 * single-thread fallback pathologies, frequent migrations under load
 * (Fig 6), and pre-processing slowdown under CPU multi-tenancy
 * (Fig 10).
 */

#ifndef AITAX_SOC_SCHEDULER_H
#define AITAX_SOC_SCHEDULER_H

#include <array>
#include <cstdint>
#include <memory>
#include <utility>
#include <vector>

#include "sim/random.h"
#include "sim/ring_queue.h"
#include "sim/simulator.h"
#include "soc/dvfs.h"
#include "soc/energy.h"
#include "soc/memory.h"
#include "soc/soc_config.h"
#include "soc/task.h"
#include "soc/thermal.h"
#include "trace/tracer.h"

namespace aitax::soc {

/**
 * Round-robin scheduler over the CPU cluster.
 */
class OsScheduler
{
  public:
    OsScheduler(sim::Simulator &sim, const CpuClusterConfig &cfg,
                ThermalModel &thermal, trace::Tracer &tracer,
                EnergyMeter *energy = nullptr,
                DvfsGovernor *dvfs = nullptr,
                MemoryFabric *fabric = nullptr);

    OsScheduler(const OsScheduler &) = delete;
    OsScheduler &operator=(const OsScheduler &) = delete;

    /** Submit a task for execution. */
    void submit(std::shared_ptr<Task> task);

    /** Tasks currently queued (not running, not blocked). */
    std::size_t queuedCount() const { return runQueue.size(); }

    /** Tasks currently on a core. */
    std::size_t runningCount() const;

    std::size_t coreCount() const { return cores.size(); }

    /** Lifetime counters for tests and Fig 6 annotations. */
    std::int64_t contextSwitches() const { return ctxSwitches; }
    std::int64_t migrations() const { return migrations_; }

    /** True when nothing is running or queued. */
    bool idle() const { return runningCount() == 0 && runQueue.empty(); }

    /**
     * Scheduler state carried across a warm-up prefix snapshot: the
     * load-balance RNG position (its draw sequence must continue where
     * the warm-up left off), the lifetime counters, and per-core
     * run/slice bookkeeping. Only valid while idle() — running tasks
     * and pending slice events are not snapshotable.
     */
    struct WarmupState
    {
        sim::RandomStream::State balanceRng{};
        std::int64_t ctxSwitches = 0;
        std::int64_t migrations = 0;
        /** Per-core (runStart, sliceEnd) pairs. */
        std::vector<std::pair<sim::TimeNs, sim::TimeNs>> coreTimes;
    };

    WarmupState warmupState() const;
    void setWarmupState(const WarmupState &s);

  private:
    struct Core
    {
        CpuCoreConfig cfg;
        /** freqGhz * 1e9 * opsPerCycle, indexed by WorkClass. */
        std::array<double, 3> opsPerSec{};
        std::shared_ptr<Task> running;
        sim::TimeNs runStart = 0;
        sim::TimeNs sliceEnd = 0;
        trace::TrackId track; ///< interned at construction
    };

    sim::Simulator &sim;
    CpuClusterConfig cfg;
    ThermalModel &thermal;
    trace::Tracer &tracer;
    EnergyMeter *energy;
    DvfsGovernor *dvfs;
    MemoryFabric *fabric;
    /** DVFS or fabric contention is on: core rates move mid-slice. */
    bool ratesVary_;
    std::vector<Core> cores;
    /** Ready tasks in arrival order, in one reused buffer. */
    sim::RingQueue<std::shared_ptr<Task>> runQueue;
    sim::RandomStream balanceRng;
    trace::EventKindId migrationKind_;
    trace::EventKindId ctxSwitchKind_;
    trace::CounterId axiCounter_;
    std::int64_t ctxSwitches = 0;
    std::int64_t migrations_ = 0;
    /** The fastest core's freqGhz * f32OpsPerCycle. */
    double topRate_ = 0.0;

    /** BlockResume thunk: schedules makeReady on a fresh event. */
    static void resumeBlocked(void *self, std::shared_ptr<Task> task);

    void makeReady(std::shared_ptr<Task> task);
    void tryDispatch();
    int pickCore(const Task &task) const;
    void dispatch(int core_idx, std::shared_ptr<Task> task);
    void runFront(int core_idx);
    void startCompute(int core_idx, ComputeStep &step);
    /**
     * Account a slice of @p busy ns that ran the core's front compute
     * step; @p step_duration is that step's remaining duration as
     * computed when the slice started.
     */
    void finishComputeSlice(int core_idx, sim::DurationNs busy,
                            sim::DurationNs step_duration);
    /** Take the running task off its core; returns its ownership. */
    std::shared_ptr<Task> leaveCore(int core_idx);
    sim::DurationNs computeDuration(const Core &core,
                                    const ComputeStep &step) const;
    /** Thermal, DVFS and fabric contention are all off. */
    bool ratesFixed() const { return !ratesVary_ && !thermal.enabled(); }

    /**
     * Destination for a lone task at slice expiry: a faster idle core
     * (deterministic up-migration), or with loadBalanceProb a same-
     * tier idle core (kernel load balancing). -1 = stay put.
     */
    int balanceTarget(int core_idx, const Task &task);
};

} // namespace aitax::soc

#endif // AITAX_SOC_SCHEDULER_H
