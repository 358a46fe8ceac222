#include "soc/interference.h"

#include <cassert>
#include <memory>

namespace aitax::soc {

InterferenceGenerator::InterferenceGenerator(sim::Simulator &sim,
                                             OsScheduler &sched,
                                             InterferenceConfig cfg,
                                             sim::RandomStream rng,
                                             trace::Tracer *tracer,
                                             sim::Arena *arena)
    : sim(sim), sched(sched), cfg(cfg), rng(std::move(rng)),
      arena_(arena), daemonAt_(sim::ArenaAllocator<sim::TimeNs>(arena))
{
    if (tracer) {
        uiLabel_ = tracer->internLabel("ui_frame");
        daemonLabel_ = tracer->internLabel("system_daemon");
    }
}

void
InterferenceGenerator::submitTask(const char *name, trace::LabelId label,
                                  double mean_ops, bool background)
{
    const double ops = mean_ops * rng.lognormalFactor(cfg.jitterSigma);
    auto task = makeTask(arena_, name, background);
    if (label.valid())
        task->setTraceLabel(label);
    task->compute({ops, ops * 2.0}, WorkClass::Scalar);
    sched.submit(std::move(task));
    ++injected;
}

void
InterferenceGenerator::arrive(bool ui)
{
    // UI ticks are foreground work; daemons run at background priority.
    if (ui)
        submitTask("ui_frame", uiLabel_, cfg.uiOps, /*background=*/false);
    else
        submitTask("system_daemon", daemonLabel_, cfg.daemonOps,
                   /*background=*/true);
}

void
InterferenceGenerator::start(sim::TimeNs horizon)
{
    assert(!started_ && "InterferenceGenerator::start runs once");
    started_ = true;
    if (!cfg.enabled)
        return;

    // Seqs are reserved in the order one schedule() per arrival would
    // consume them, the whole UI band and then the daemon band, and
    // every daemon gap is drawn here, before any arrival's work draw.
    assert(cfg.uiPeriodNs > 0);
    uiTicks_ = horizon > 0 ? static_cast<std::uint64_t>(
                                 (horizon - 1) / cfg.uiPeriodNs)
                           : 0;
    uiSeq_ = sim.reserveSeqs(uiTicks_);
    if (cfg.daemonRatePerSec > 0.0) {
        // Daemon/binder activity: Poisson arrivals.
        const double mean_gap_ns = 1e9 / cfg.daemonRatePerSec;
        sim::TimeNs t = 0;
        while (true) {
            t += static_cast<sim::DurationNs>(
                rng.exponential(mean_gap_ns));
            if (t >= horizon)
                break;
            daemonAt_.push_back(t);
        }
    }
    daemonSeq_ = sim.reserveSeqs(daemonAt_.size());

    if (sim.mode() == sim::EngineMode::Fast) {
        chainNext();
        return;
    }
    // The Reference engine keeps the oracle's shape: every arrival in
    // the event heap from the start.
    for (std::uint64_t k = 0; k < uiTicks_; ++k)
        sim.scheduleAtSeq(uiTickAt(k), uiSeq_ + k, [this] { arrive(true); });
    for (std::size_t j = 0; j < daemonAt_.size(); ++j)
        sim.scheduleAtSeq(daemonAt_[j], daemonSeq_ + j,
                          [this] { arrive(false); });
}

void
InterferenceGenerator::chainNext()
{
    const bool ui_left = nextUi_ < uiTicks_;
    const bool daemon_left = nextDaemon_ < daemonAt_.size();
    // Every UI seq is below every daemon seq, so a UI tick wins a tie.
    if (ui_left &&
        (!daemon_left || uiTickAt(nextUi_) <= daemonAt_[nextDaemon_])) {
        const std::uint64_t k = nextUi_++;
        sim.scheduleAtSeq(uiTickAt(k), uiSeq_ + k, [this] {
            chainNext();
            arrive(true);
        });
    } else if (daemon_left) {
        const std::size_t j = nextDaemon_++;
        sim.scheduleAtSeq(daemonAt_[j], daemonSeq_ + j, [this] {
            chainNext();
            arrive(false);
        });
    }
}

} // namespace aitax::soc
