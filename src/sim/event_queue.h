/**
 * @file
 * Priority event queue for the discrete-event simulator.
 *
 * Hot-path layout: the heap holds small POD entries (timestamp, FIFO
 * sequence, slot reference) in an implicit d-ary heap, while callbacks
 * live in a slot arena recycled through a free list. Cancellation is
 * generation-counted — an EventId encodes (slot, generation), so a
 * cancel is O(1), a cancel of an already-fired (or doubly-cancelled)
 * event is a true no-op, and bookkeeping is bounded by the number of
 * pending entries rather than growing with the lifetime of the queue.
 *
 * The Fast engine (sim/engine_mode.h) adds a one-slot *front cache* in
 * front of the heap, invisible to pop order. It holds the single
 * earliest entry, and the invariant is strict: when occupied, the
 * cached entry orders before every entry stored in the heap, so a pop
 * can take it with zero sift work. The dominant simulator pattern — an
 * event scheduling its own continuation at or near `now` — hits this
 * cache and never touches the heap at all. Every schedule() inserts
 * at once; sequence numbers are fixed there, so pop order is the
 * (timestamp, seq) order whatever the heap's shape.
 *
 * Both engines pop in identical (timestamp, seq) order; the
 * differential tier proves it byte-for-byte.
 */

#ifndef AITAX_SIM_EVENT_QUEUE_H
#define AITAX_SIM_EVENT_QUEUE_H

#include <cstdint>
#include <vector>

#include "sim/audit.h"
#include "sim/engine_mode.h"
#include "sim/inline_function.h"
#include "sim/time.h"

namespace aitax::sim {

/**
 * Handle used to cancel a scheduled event.
 *
 * Encodes (generation << 32 | slot); 0 is never a valid id. Ids are
 * unique per live event — once an event fires or is cancelled its
 * slot's generation advances, so stale handles are rejected.
 */
using EventId = std::uint64_t;

/**
 * Time-ordered queue of callbacks.
 *
 * Ties are broken by insertion order so that same-timestamp events
 * execute deterministically in FIFO order.
 */
class EventQueue
{
  public:
    explicit EventQueue(EngineMode mode = EngineMode::Fast)
        : fast_(mode == EngineMode::Fast)
    {
    }

    EngineMode
    mode() const
    {
        return fast_ ? EngineMode::Fast : EngineMode::Reference;
    }

    /** Schedule @p fn to fire at absolute time @p when. */
    EventId schedule(TimeNs when, EventFn &&fn);

    /**
     * Reserve @p n consecutive FIFO sequence numbers and return the
     * first. A component that knows its future arrival times up front
     * (the interference generator) reserves its band once, then feeds
     * events in one at a time via scheduleWithSeq() — keeping the heap
     * shallow while every event keeps the exact (when, seq) pair the
     * Reference engine would have assigned by pre-scheduling them all.
     */
    std::uint64_t
    reserveSeqs(std::uint64_t n)
    {
        const std::uint64_t base = nextSeq;
        nextSeq += n;
        return base;
    }

    /**
     * Schedule @p fn at @p when with an explicit FIFO sequence number
     * previously obtained from reserveSeqs(). Does not advance the
     * seq counter. The caller owns the contract that reserved seqs are
     * fed back in increasing order per timestamp (the tie auditor
     * catches violations at pop time).
     */
    EventId scheduleWithSeq(TimeNs when, std::uint64_t seq, EventFn &&fn);

    /** Cancel a pending event. Cancelling a fired event is a no-op. */
    void cancel(EventId id);

    /** True if no live events remain. */
    bool empty() const { return liveCount == 0; }

    /** Number of live (non-cancelled, unfired) events. */
    std::size_t size() const { return liveCount; }

    /** Timestamp of the next live event. Queue must not be empty. */
    TimeNs nextTime() const;

    /**
     * Pop and run the next live event.
     * @return the timestamp the event fired at.
     */
    TimeNs popAndRun();

    /**
     * Fused skip-ahead pop for the Fast engine's inner loop: one stale
     * sweep, one top read, and @p now is advanced to the event's
     * timestamp *before* the callback runs (so now() observed inside
     * the callback is the event's own time). Semantically identical to
     * `now = nextTime(); popAndRun();` without the double head work.
     * @return the timestamp the event fired at.
     */
    TimeNs runNext(TimeNs &now);

    // --- bookkeeping introspection (tests, leak accounting) ----------

    /** Callback slots ever allocated = peak concurrent pending events. */
    std::size_t slotCapacity() const { return slots.size(); }

    /**
     * Heap entries currently stored, including lazily-dropped stale
     * ones and the one parked in the front cache. Compaction keeps
     * this O(size()).
     */
    std::size_t
    heapEntries() const
    {
        return heap.size() + (hasFront_ ? 1u : 0u);
    }

    /** Pops served by the front cache with zero heap work (Fast). */
    std::uint64_t frontCacheHits() const { return frontHits_; }

    /** Current seq watermark (next seq a schedule() would consume). */
    std::uint64_t seqWatermark() const { return nextSeq; }

    /**
     * Tie-auditor ordering state plus the seq counter — everything
     * needed to freeze the queue's ordering contract at a warm-up
     * snapshot point and re-arm it on a fresh queue.
     */
    struct OrderState
    {
        std::uint64_t nextSeq = 0;
        TimeNs lastPoppedWhen = 0;
        std::uint64_t lastPoppedSeq = 0;
        bool poppedAny = false;
    };

    OrderState
    orderState() const
    {
        return {nextSeq, lastPoppedWhen, lastPoppedSeq, poppedAny};
    }

    void
    setOrderState(const OrderState &s)
    {
        nextSeq = s.nextSeq;
        lastPoppedWhen = s.lastPoppedWhen;
        lastPoppedSeq = s.lastPoppedSeq;
        poppedAny = s.poppedAny;
    }

    /**
     * Test-only: force the next scheduled event's FIFO sequence
     * number. Exists so tests/test_audits.cc can fabricate a seq
     * collision and prove the tie auditor fires; never call it from
     * production code.
     */
    void debugSetNextSeq(std::uint64_t seq) { nextSeq = seq; }

  private:
    /** POD heap node; callbacks live in the slot arena. */
    struct HeapEntry
    {
        TimeNs when;
        std::uint64_t seq;
        std::uint32_t slot;
        std::uint32_t gen;
    };

    struct Slot
    {
        EventFn fn;
        std::uint32_t gen = 1;
        bool live = false;
    };

    /** Heap arity; 4-ary trades deeper fanout for fewer cache lines. */
    static constexpr std::size_t kArity = 4;

    std::vector<HeapEntry> heap;
    std::vector<Slot> slots;
    std::vector<std::uint32_t> freeSlots;
    std::uint64_t nextSeq = 0;
    std::size_t liveCount = 0;
    // Tie-auditor state: last popped (when, seq); see popAndRun().
    TimeNs lastPoppedWhen = 0;
    std::uint64_t lastPoppedSeq = 0;
    bool poppedAny = false;
    // --- Fast-engine state -------------------------------------------
    bool fast_ = true;
    /** Front cache: earliest stored entry, bypassing the heap. */
    HeapEntry front_{};
    bool hasFront_ = false;
    std::uint64_t frontHits_ = 0;

    static bool
    before(const HeapEntry &a, const HeapEntry &b)
    {
        if (a.when != b.when)
            return a.when < b.when;
        return a.seq < b.seq;
    }

    /** True if the entry refers to a fired/cancelled/reused slot. */
    bool
    stale(const HeapEntry &e) const
    {
        const Slot &s = slots[e.slot];
        return !s.live || s.gen != e.gen;
    }

    std::uint32_t allocSlot();
    void freeSlot(std::uint32_t slot);
    void siftUp(std::size_t i);
    void siftDown(std::size_t i);
    void popHeapTop();
    void dropStaleHead();
    /** Rebuild the heap without stale entries when they dominate. */
    void compact();
    /** Place an entry into front cache or heap (invariant-preserving). */
    void insertEntry(const HeapEntry &e);
    /** Remove and return the next live entry; audits (when, seq). */
    HeapEntry takeNext();
};

} // namespace aitax::sim

#endif // AITAX_SIM_EVENT_QUEUE_H
