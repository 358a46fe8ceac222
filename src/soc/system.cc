#include "soc/system.h"

namespace aitax::soc {

SocSystem::SocSystem(SocConfig cfg_in, std::uint64_t seed,
                     sim::EngineMode engine, sim::Arena *arena)
    : cfg(std::move(cfg_in)), sim_(engine), tracer_(arena),
      fabric_(cfg.fabric),
      dvfs_(cfg.dvfs, sim_), thermal_(cfg.thermal, sim_),
      sched_(sim_, cfg.cluster, thermal_, tracer_, &energy_, &dvfs_,
             &fabric_),
      gpu_(sim_, cfg.gpu, tracer_, &energy_, &fabric_),
      dsp_(sim_, cfg.dsp, tracer_, &energy_, &fabric_),
      rpc_(sim_, cfg.fastrpc, dsp_), rng_(seed, "soc"),
      arena_(arena)
{
}

void
SocSystem::armFaults(const faults::FaultConfig &fault_cfg)
{
    if (!fault_cfg.enabled)
        return;
    sim::RandomStream stream = rng_.fork("faults");
    faults::FaultPlan plan = faults::makeFaultPlan(fault_cfg, stream);
    if (arena_ != nullptr) {
        // Arena-resident injector: destroyed by the arena's finalizer
        // at reset, after this SocSystem is gone.
        faults_ = arena_->create<faults::FaultInjector>(
            std::move(plan), stream, &tracer_);
    } else {
        faultsOwned_ = std::make_unique<faults::FaultInjector>(
            std::move(plan), stream, &tracer_);
        faults_ = faultsOwned_.get();
    }
    dsp_.setFaultInjector(faults_);
    rpc_.setFaultInjector(faults_);
    for (sim::TimeNs when : faults_->plan().thermalEmergencyAtNs) {
        const double heat = faults_->config().thermalEmergencyHeat;
        sim_.scheduleAt(when, [this, heat] {
            thermal_.triggerEmergency(heat);
            faults_->recordThermalEmergency(sim_.now());
        });
    }
}

bool
SocSystem::captureWarmup(WarmupSnapshot &out, std::uint64_t seq_base)
{
    // Memoizable only when the system is quiescent apart from the
    // fault plan's unfired emergencies: a running/queued task would
    // need its full continuation captured, and a fired emergency bakes
    // seed-dependent heat and trace records into the snapshot.
    if (!sched_.idle())
        return false;
    if (fabric_.activeClients() != 0)
        return false;
    std::size_t pending_emergencies = 0;
    if (faults_) {
        if (faults_->stats().thermalEmergencies != 0)
            return false;
        pending_emergencies = faults_->plan().thermalEmergencyAtNs.size();
    }
    if (sim_.pendingEvents() != pending_emergencies)
        return false;

    const sim::Simulator::ClockState cs = sim_.clockState();
    if (!cs.order.poppedAny || cs.order.lastPoppedSeq < seq_base ||
        cs.order.nextSeq < seq_base)
        return false;
    out.endTimeNs = cs.now;
    out.eventsExecuted = cs.executed;
    out.relNextSeq = cs.order.nextSeq - seq_base;
    out.relLastPoppedSeq = cs.order.lastPoppedSeq - seq_base;
    out.lastPoppedWhen = cs.order.lastPoppedWhen;
    out.sched = sched_.warmupState();
    out.thermal = thermal_.state();
    out.dvfs = dvfs_.state();
    out.energy = energy_.state();
    out.tracer.cloneFrom(tracer_);
    return true;
}

void
SocSystem::restoreWarmup(const WarmupSnapshot &snap)
{
    // Rebase the snapshot's relative seqs onto this system's own
    // watermark: armFaults() already reserved seqs for this run's
    // emergencies, possibly a different count than the captured run's.
    const std::uint64_t base = sim_.seqWatermark();
    sim::Simulator::ClockState cs;
    cs.now = snap.endTimeNs;
    cs.executed = snap.eventsExecuted;
    cs.order.nextSeq = base + snap.relNextSeq;
    cs.order.lastPoppedWhen = snap.lastPoppedWhen;
    cs.order.lastPoppedSeq = base + snap.relLastPoppedSeq;
    cs.order.poppedAny = true;
    sim_.setClockState(cs);
    sched_.setWarmupState(snap.sched);
    thermal_.setState(snap.thermal);
    dvfs_.setState(snap.dvfs);
    energy_.setState(snap.energy);
    fabric_.setActiveClients(0);
    tracer_.cloneFrom(snap.tracer);
}

} // namespace aitax::soc
