/**
 * @file
 * The discrete-event simulator: a virtual clock plus an event queue.
 *
 * All SoC components (CPU scheduler, accelerator servers, FastRPC
 * channel, camera) schedule work against a shared Simulator instance.
 * Running the simulator to quiescence advances virtual time
 * deterministically.
 */

#ifndef AITAX_SIM_SIMULATOR_H
#define AITAX_SIM_SIMULATOR_H

#include <cstdint>
#include <utility>

#include "sim/audit.h"
#include "sim/engine_mode.h"
#include "sim/event_queue.h"
#include "sim/time.h"

namespace aitax::sim {

/**
 * Discrete-event simulation driver.
 *
 * Events fire in timestamp order (FIFO among ties); the clock never
 * moves backwards. The simulator is single-threaded by design —
 * determinism is a core requirement for reproducible experiments.
 *
 * Two engines share this interface (sim/engine_mode.h): the Reference
 * heap-only loop and the Fast front-cached, skip-ahead loop. Both fire
 * events in identical (timestamp, seq) order.
 */
class Simulator
{
  public:
    explicit Simulator(EngineMode mode = EngineMode::Fast)
        : queue(mode)
    {
    }

    Simulator(const Simulator &) = delete;
    Simulator &operator=(const Simulator &) = delete;

    /** Which inner event-loop engine this simulator runs. */
    EngineMode mode() const { return queue.mode(); }

    /** Current virtual time. */
    TimeNs now() const { return nowNs; }

    /**
     * Schedule @p fn to run @p delay ns from now. Negative clamps to 0.
     * The callable is built in its queue slot (EventQueue::schedule).
     */
    template <EventCallable F>
    void
    scheduleIn(DurationNs delay, F &&fn)
    {
        AITAX_AUDIT_OWNER(owner_, "Simulator");
        if (delay < 0)
            delay = 0;
        queue.schedule(nowNs + delay, std::forward<F>(fn));
    }

    /** Schedule @p fn at absolute time @p when (>= now). */
    template <EventCallable F>
    void
    scheduleAt(TimeNs when, F &&fn)
    {
        AITAX_AUDIT_OWNER(owner_, "Simulator");
        if (when < nowNs)
            when = nowNs;
        queue.schedule(when, std::forward<F>(fn));
    }

    /**
     * Reserve @p n consecutive FIFO seq numbers for scheduleAtSeq().
     * See EventQueue::reserveSeqs() for the intended use.
     */
    std::uint64_t reserveSeqs(std::uint64_t n)
    {
        return queue.reserveSeqs(n);
    }

    /** Schedule at @p when (>= now) with a reserved seq number. */
    template <EventCallable F>
    void
    scheduleAtSeq(TimeNs when, std::uint64_t seq, F &&fn)
    {
        AITAX_AUDIT_OWNER(owner_, "Simulator");
        if (when < nowNs)
            when = nowNs;
        queue.scheduleWithSeq(when, seq, std::forward<F>(fn));
    }

    /** True if no events are pending. */
    bool idle() const { return queue.empty(); }

    /**
     * Run until the event queue drains.
     * @return the final virtual time.
     */
    TimeNs run();

    /**
     * Run until the queue drains or virtual time would pass @p deadline.
     * Events at exactly @p deadline still fire.
     * @return the final virtual time.
     */
    TimeNs runUntil(TimeNs deadline);

    /**
     * Run until @p done() returns true (checked between events) or
     * the queue drains.
     * @return the final virtual time.
     */
    template <typename Pred>
    TimeNs
    runUntilCondition(Pred &&done)
    {
        AITAX_AUDIT_OWNER(owner_, "Simulator");
        while (!queue.empty() && !done()) {
            nowNs = queue.nextTime();
            queue.popAndRun();
            ++executed;
        }
        return nowNs;
    }

    /** Number of events executed so far (for tests/diagnostics). */
    std::uint64_t eventsExecuted() const { return executed; }

    /** Number of pending events. */
    std::size_t pendingEvents() const { return queue.size(); }

    /** Pops served by the queue's front cache (Fast engine only). */
    std::uint64_t frontCacheHits() const { return queue.frontCacheHits(); }

    /** Seq number the next schedule() will consume (snapshot keying). */
    std::uint64_t seqWatermark() const { return queue.seqWatermark(); }

    /**
     * Clock + ordering state for warm-up prefix snapshots: everything
     * the simulator itself must carry across a snapshot/restore so a
     * resumed run pops, audits and numbers events exactly like the
     * uninterrupted one. Pending event *contents* are deliberately not
     * part of this — snapshot eligibility requires the queue to hold
     * only re-creatable events (see soc::SocSystem::captureWarmup).
     */
    struct ClockState
    {
        TimeNs now = 0;
        std::uint64_t executed = 0;
        EventQueue::OrderState order;
    };

    ClockState
    clockState() const
    {
        return {nowNs, executed, queue.orderState()};
    }

    void
    setClockState(const ClockState &s)
    {
        nowNs = s.now;
        executed = s.executed;
        queue.setOrderState(s.order);
    }

    /**
     * Release thread ownership (audited builds): the next audited
     * touch rebinds the simulator to its new owning thread. Only for
     * deliberate handoffs between construction and use.
     */
    void auditReleaseOwner() { owner_.release(); }

  private:
    EventQueue queue;
    TimeNs nowNs = 0;
    std::uint64_t executed = 0;
    /** Thread-ownership sentinel; checks compiled in audited builds. */
    OwnershipSentinel owner_;
};

} // namespace aitax::sim

#endif // AITAX_SIM_SIMULATOR_H
