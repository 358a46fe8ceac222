#include "soc/scheduler.h"

#include <algorithm>
#include <cassert>
#include <cmath>

namespace aitax::soc {

OsScheduler::OsScheduler(sim::Simulator &sim, const CpuClusterConfig &cfg,
                         ThermalModel &thermal, trace::Tracer &tracer,
                         EnergyMeter *energy, DvfsGovernor *dvfs,
                         MemoryFabric *fabric)
    : sim(sim), cfg(cfg), thermal(thermal), tracer(tracer),
      energy(energy), dvfs(dvfs), fabric(fabric),
      ratesVary_((dvfs && dvfs->config().enabled) ||
                 (fabric && fabric->config().contentionEnabled)),
      balanceRng(0xA17Au, "os-load-balance")
{
    assert(!cfg.cores.empty());
    cores.reserve(cfg.cores.size());
    for (const auto &core_cfg : cfg.cores) {
        Core core{core_cfg, {}, nullptr, 0, 0,
                  tracer.internTrack(core_cfg.name)};
        for (const WorkClass cls : {WorkClass::Scalar, WorkClass::VectorF32,
                                    WorkClass::VectorI8})
            core.opsPerSec[static_cast<std::size_t>(cls)] =
                core_cfg.freqGhz * 1e9 * core_cfg.opsPerCycle(cls);
        topRate_ = std::max(topRate_,
                            core_cfg.freqGhz * core_cfg.f32OpsPerCycle);
        cores.push_back(std::move(core));
    }
    migrationKind_ = tracer.internEventKind("migration");
    ctxSwitchKind_ = tracer.internEventKind("context_switch");
    axiCounter_ = tracer.internCounter("axi_bytes");
}

std::size_t
OsScheduler::runningCount() const
{
    std::size_t n = 0;
    for (const auto &c : cores)
        if (c.running)
            ++n;
    return n;
}

void
OsScheduler::submit(std::shared_ptr<Task> task)
{
    assert(task);
    assert(task->state() == TaskState::Created);
    makeReady(std::move(task));
}

void
OsScheduler::resumeBlocked(void *self, std::shared_ptr<Task> task)
{
    auto *sched = static_cast<OsScheduler *>(self);
    sched->sim.scheduleIn(
        0, [sched, task = std::move(task)] { sched->makeReady(task); });
}

void
OsScheduler::makeReady(std::shared_ptr<Task> task)
{
    if (task->state() == TaskState::Done)
        return;
    assert(task->state() != TaskState::Ready &&
           task->state() != TaskState::Running);
    task->setState(TaskState::Ready);
    runQueue.push_back(std::move(task));
    tryDispatch();
}

int
OsScheduler::pickCore(const Task &task) const
{
    // Foreground tasks take the fastest idle core (EAS-style up-
    // migration), background tasks the slowest; the previous core
    // breaks ties so hot caches are reused within a tier.
    int best = -1;
    double best_rate = 0.0;
    for (std::size_t i = 0; i < cores.size(); ++i) {
        if (cores[i].running)
            continue;
        const double rate =
            cores[i].cfg.freqGhz * cores[i].cfg.f32OpsPerCycle;
        bool better;
        if (best < 0) {
            better = true;
        } else if (rate != best_rate) {
            better = task.isBackground() ? rate < best_rate
                                         : rate > best_rate;
        } else {
            better = static_cast<int>(i) == task.lastCore();
        }
        if (better) {
            best = static_cast<int>(i);
            best_rate = rate;
        }
    }
    return best;
}

void
OsScheduler::tryDispatch()
{
    while (!runQueue.empty()) {
        const int core_idx = pickCore(*runQueue.front());
        if (core_idx < 0)
            return;
        auto task = std::move(runQueue.front());
        runQueue.pop_front();
        dispatch(core_idx, std::move(task));
    }
}

void
OsScheduler::dispatch(int core_idx, std::shared_ptr<Task> task)
{
    Core &core = cores[static_cast<std::size_t>(core_idx)];
    assert(!core.running);
    const bool migrated =
        task->lastCore() >= 0 && task->lastCore() != core_idx;
    if (migrated) {
        ++migrations_;
        if (tracer.isEnabled())
            tracer.recordEvent(migrationKind_, task->traceLabel(tracer),
                               sim.now());
    }
    task->setLastCore(core_idx);
    task->setState(TaskState::Running);
    core.running = std::move(task);
    core.runStart = sim.now();
    if (dvfs)
        dvfs->onBusyChange(core.cfg.big, +1);
    if (fabric)
        fabric->onClientChange(+1);

    const sim::DurationNs overhead =
        cfg.contextSwitchNs + (migrated ? cfg.migrationNs : 0);
    core.sliceEnd = sim.now() + overhead + cfg.timeSliceNs;
    sim.scheduleIn(overhead, [this, core_idx] { runFront(core_idx); });
}

std::shared_ptr<Task>
OsScheduler::leaveCore(int core_idx)
{
    Core &core = cores[static_cast<std::size_t>(core_idx)];
    assert(core.running);
    if (tracer.isEnabled())
        tracer.recordInterval(core.track,
                              core.running->traceLabel(tracer),
                              core.runStart, sim.now());
    std::shared_ptr<Task> task = std::move(core.running);
    if (dvfs)
        dvfs->onBusyChange(core.cfg.big, -1);
    if (fabric)
        fabric->onClientChange(-1);
    return task;
}

void
OsScheduler::runFront(int core_idx)
{
    // The core owns its running task: borrow it, and take ownership
    // back from leaveCore() on the paths that take it off the core.
    Task *task = cores[static_cast<std::size_t>(core_idx)].running.get();
    assert(task);

    while (true) {
        if (!task->hasSteps()) {
            const auto owned = leaveCore(core_idx);
            task->finish(sim.now());
            tryDispatch();
            return;
        }

        TaskStep &step = task->frontStep();

        if (auto *marker = std::get_if<MarkerStep>(&step)) {
            auto fn = std::move(marker->fn);
            task->popStep();
            if (fn)
                fn(sim.now());
            continue;
        }

        if (auto *sleep = std::get_if<SleepStep>(&step)) {
            const sim::DurationNs duration = sleep->duration;
            task->popStep();
            auto owned = leaveCore(core_idx);
            task->setState(TaskState::Blocked);
            sim.scheduleIn(duration, [this, owned = std::move(owned)] {
                makeReady(owned);
            });
            tryDispatch();
            return;
        }

        if (auto *blocked = std::get_if<BlockStep>(&step)) {
            auto start = std::move(blocked->start);
            task->popStep();
            const auto owned = leaveCore(core_idx);
            task->setState(TaskState::Blocked);
            // The resume token owns the task while it is blocked and
            // re-enters the scheduler via a fresh event (resumeBlocked)
            // so a synchronous resume inside start() cannot re-enter us.
            start(*task, BlockResume(&OsScheduler::resumeBlocked, this,
                                     owned));
            tryDispatch();
            return;
        }

        startCompute(core_idx, std::get<ComputeStep>(step));
        return;
    }
}

sim::DurationNs
OsScheduler::computeDuration(const Core &core,
                             const ComputeStep &step) const
{
    double ops_rate = core.opsPerSec[static_cast<std::size_t>(step.cls)];
    double byte_rate = core.cfg.memBytesPerSec;
    // With every rate model off each factor is exactly 1.0, and
    // x * 1.0 == x, so skipping them keeps every bit.
    if (!ratesFixed()) {
        double factor = thermal.speedFactor();
        if (dvfs)
            factor *= dvfs->factor(core.cfg.big);
        ops_rate *= factor;
        byte_rate *= factor;
        if (fabric)
            byte_rate *= fabric->derateFactor();
    }
    const double ops = step.work.flops * step.remaining;
    const double bytes = step.work.bytes * step.remaining;
    const double sec =
        std::max(ops / ops_rate, bytes / byte_rate);
    const auto ns = static_cast<sim::DurationNs>(std::ceil(sec * 1e9));
    return std::max<sim::DurationNs>(ns, 1);
}

void
OsScheduler::startCompute(int core_idx, ComputeStep &step)
{
    Core &core = cores[static_cast<std::size_t>(core_idx)];
    assert(core.running);

    const sim::DurationNs duration = computeDuration(core, step);
    const sim::DurationNs slice_rem =
        std::max<sim::DurationNs>(core.sliceEnd - sim.now(), 0);

    if (duration <= slice_rem) {
        // Step completes within the slice.
        sim.scheduleIn(duration, [this, core_idx, duration] {
            finishComputeSlice(core_idx, duration, duration);
            Core &c = cores[static_cast<std::size_t>(core_idx)];
            auto &st = std::get<ComputeStep>(c.running->frontStep());
            st.remaining = 0.0;
            c.running->popStep();
            runFront(core_idx);
        });
        return;
    }

    // Slice expires first.
    sim.scheduleIn(slice_rem, [this, core_idx, duration, slice_rem] {
        finishComputeSlice(core_idx, slice_rem, duration);
        Core &c = cores[static_cast<std::size_t>(core_idx)];
        Task *task = c.running.get();
        auto &st = std::get<ComputeStep>(task->frontStep());
        const double frac =
            static_cast<double>(slice_rem) / static_cast<double>(duration);
        st.remaining *= std::max(0.0, 1.0 - frac);

        if (runQueue.empty()) {
            const int dest = balanceTarget(core_idx, *task);
            if (dest >= 0) {
                auto owned = leaveCore(core_idx);
                task->setState(TaskState::Ready);
                dispatch(dest, std::move(owned));
                return;
            }
            // Nothing else to run: renew the slice in place, free of
            // context-switch cost.
            c.sliceEnd = sim.now() + cfg.timeSliceNs;
            startCompute(core_idx, st);
            return;
        }
        ++ctxSwitches;
        if (tracer.isEnabled())
            tracer.recordEvent(ctxSwitchKind_,
                               task->traceLabel(tracer), sim.now());
        auto owned = leaveCore(core_idx);
        task->setState(TaskState::Ready);
        runQueue.push_back(std::move(owned));
        tryDispatch();
    });
}

void
OsScheduler::finishComputeSlice(int core_idx, sim::DurationNs busy,
                                sim::DurationNs step_duration)
{
    Core &core = cores[static_cast<std::size_t>(core_idx)];
    assert(core.running);

    const auto &st = std::get<ComputeStep>(core.running->frontStep());
    // Portion of the step's total byte traffic this slice covered. No
    // rate model can switch off mid-slice (a thermal emergency only
    // switches thermal on), so with all of them off now they were off
    // at slice start and the start-time duration is still exact.
    const sim::DurationNs total =
        ratesFixed() ? step_duration : computeDuration(core, st);
    const double frac_of_remaining =
        total > 0 ? std::min(1.0, static_cast<double>(busy) /
                                      static_cast<double>(total))
                  : 1.0;
    const double bytes = st.work.bytes * st.remaining * frac_of_remaining;
    if (bytes > 0)
        tracer.recordCounter(axiCounter_, sim.now(), bytes);

    if (energy) {
        const PowerDomain domain = core.cfg.big
                                       ? PowerDomain::BigCpu
                                       : PowerDomain::LittleCpu;
        energy->addDynamic(domain, st.work.flops * st.remaining *
                                       frac_of_remaining);
        energy->addStatic(domain, busy);
    }

    const double busy_sec = static_cast<double>(busy) / sim::kNsPerSec;
    thermal.addHeat(busy_sec * (core.cfg.big ? 1.0 : 0.4));
}


int
OsScheduler::balanceTarget(int core_idx, const Task &task)
{
    const Core &core = cores[static_cast<std::size_t>(core_idx)];
    const double my_rate = core.cfg.freqGhz * core.cfg.f32OpsPerCycle;

    // EAS-style up-migration: a foreground task displaced to a slow
    // core moves as soon as a faster core goes idle.
    if (!task.isBackground() && my_rate < topRate_) {
        for (std::size_t i = 0; i < cores.size(); ++i) {
            if (!cores[i].running &&
                cores[i].cfg.freqGhz * cores[i].cfg.f32OpsPerCycle >
                    my_rate) {
                return static_cast<int>(i);
            }
        }
    }

    // Kernel load balancing occasionally bounces a lone task between
    // idle cores of the same tier (Fig 6's migration churn): count the
    // candidates, draw one, then walk to it.
    if (cfg.loadBalanceProb > 0.0 &&
        balanceRng.bernoulli(cfg.loadBalanceProb)) {
        const auto candidate = [&](std::size_t i) {
            return static_cast<int>(i) != core_idx && !cores[i].running &&
                   cores[i].cfg.freqGhz * cores[i].cfg.f32OpsPerCycle ==
                       my_rate;
        };
        std::int64_t count = 0;
        for (std::size_t i = 0; i < cores.size(); ++i)
            count += candidate(i) ? 1 : 0;
        if (count > 0) {
            auto pick = balanceRng.uniformInt(0, count - 1);
            for (std::size_t i = 0; i < cores.size(); ++i)
                if (candidate(i) && pick-- == 0)
                    return static_cast<int>(i);
        }
    }
    return -1;
}

OsScheduler::WarmupState
OsScheduler::warmupState() const
{
    assert(idle());
    WarmupState s;
    s.balanceRng = balanceRng.state();
    s.ctxSwitches = ctxSwitches;
    s.migrations = migrations_;
    s.coreTimes.reserve(cores.size());
    for (const Core &c : cores)
        s.coreTimes.emplace_back(c.runStart, c.sliceEnd);
    return s;
}

void
OsScheduler::setWarmupState(const WarmupState &s)
{
    assert(idle());
    assert(s.coreTimes.size() == cores.size());
    balanceRng.setState(s.balanceRng);
    ctxSwitches = s.ctxSwitches;
    migrations_ = s.migrations;
    for (std::size_t i = 0; i < cores.size(); ++i) {
        cores[i].runStart = s.coreTimes[i].first;
        cores[i].sliceEnd = s.coreTimes[i].second;
    }
}

} // namespace aitax::soc
