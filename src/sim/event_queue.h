/**
 * @file
 * Priority event queue for the discrete-event simulator.
 *
 * Hot-path layout: the heap holds small POD entries (timestamp, FIFO
 * sequence, callback slot) in an implicit d-ary heap, while callbacks
 * live in slots carved from fixed-size blocks and recycled through a
 * free list. A block never moves once allocated, so a callback is
 * built directly in its slot by schedule() and runs there: a callback
 * may schedule any number of events, growing new blocks, while it
 * runs, and its slot returns to the free list only after it returns.
 * Events are never cancelled, so every stored entry is live and the
 * queue's bookkeeping is bounded by the peak number of pending events.
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

#include <cassert>
#include <cstddef>
#include <cstdint>
#include <memory>
#include <utility>
#include <vector>

#include "sim/audit.h"
#include "sim/engine_mode.h"
#include "sim/inline_function.h"
#include "sim/time.h"

namespace aitax::sim {

/**
 * What schedule() accepts: any callable an EventFn can hold, or an
 * rvalue EventFn. An lvalue EventFn is refused, since it is move-only.
 */
template <typename F>
concept EventCallable = requires(EventFn &slot, F &&fn) {
    slot.emplace(std::forward<F>(fn));
};

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

    /** Schedule @p fn, built in its slot, to fire at time @p when. */
    template <EventCallable F>
    void
    schedule(TimeNs when, F &&fn)
    {
        EventFn *slot = allocSlot();
        slot->emplace(std::forward<F>(fn));
        insertEntry(HeapEntry{when, nextSeq++, slot});
    }

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
    template <EventCallable F>
    void
    scheduleWithSeq(TimeNs when, std::uint64_t seq, F &&fn)
    {
        assert(seq < nextSeq && "seq must come from reserveSeqs()");
        EventFn *slot = allocSlot();
        slot->emplace(std::forward<F>(fn));
        insertEntry(HeapEntry{when, seq, slot});
    }

    /** True if no events are pending. */
    bool empty() const { return !hasFront_ && heap.empty(); }

    /** Number of pending events. */
    std::size_t size() const { return heapEntries(); }

    /** Timestamp of the next event. Queue must not be empty. */
    TimeNs
    nextTime() const
    {
        assert(!empty());
        return hasFront_ ? front_.when : heap.front().when;
    }

    /**
     * Pop and run the next event.
     * @return the timestamp the event fired at.
     */
    TimeNs
    popAndRun()
    {
        TimeNs when = 0;
        return runNext(when);
    }

    /**
     * Fused skip-ahead pop for the Fast engine's inner loop: one head
     * read, and @p now is advanced to the event's timestamp *before*
     * the callback runs (so now() observed inside the callback is the
     * event's own time). Semantically identical to
     * `now = nextTime(); popAndRun();` without the double head work.
     * @return the timestamp the event fired at.
     */
    TimeNs
    runNext(TimeNs &now)
    {
        const HeapEntry top = takeNext();
        now = top.when;
        run(top.fn);
        return top.when;
    }

    // --- bookkeeping introspection (tests, leak accounting) ----------

    /**
     * Callback slots ever handed out: the peak number of pending
     * events plus running callbacks.
     */
    std::size_t slotCapacity() const { return slotCount_; }

    /** Entries stored in the heap plus the one in the front cache. */
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
    /** POD heap node; the callback lives in the slot it points to. */
    struct HeapEntry
    {
        TimeNs when;
        std::uint64_t seq;
        EventFn *fn;
    };

    /** Slots per block: 64 slots of 64 bytes, 4 KiB. */
    static constexpr std::size_t kBlockSlots = 64;

    struct SlotBlock
    {
        EventFn slots[kBlockSlots];
    };

    /** Heap arity; 4-ary trades deeper fanout for fewer cache lines. */
    static constexpr std::size_t kArity = 4;

    std::vector<HeapEntry> heap;
    /** Slot storage; a block's address is fixed for its lifetime. */
    std::vector<std::unique_ptr<SlotBlock>> blocks_;
    std::size_t slotCount_ = 0;
    /** Empty slots ready for reuse, most recently freed last. */
    std::vector<EventFn *> freeSlots_;
    std::uint64_t nextSeq = 0;
    // Tie-auditor state: last popped (when, seq); see takeNext().
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

    EventFn *
    allocSlot()
    {
        if (freeSlots_.empty())
            return newSlot();
        EventFn *slot = freeSlots_.back();
        freeSlots_.pop_back();
        return slot;
    }

    /** Hand out a never-used slot, growing a block when all are used. */
    EventFn *newSlot();

    /** Run the callback in its slot, then recycle the slot. */
    void
    run(EventFn *slot)
    {
        (*slot)();
        slot->reset();
        freeSlots_.push_back(slot);
    }

    void siftUp(std::size_t i);
    void siftDown(std::size_t i);

    void
    popHeapTop()
    {
        heap.front() = heap.back();
        heap.pop_back();
        if (!heap.empty())
            siftDown(0);
    }

    /** Place an entry into front cache or heap (invariant-preserving). */
    void
    insertEntry(const HeapEntry &e)
    {
        if (fast_) {
            if (hasFront_) {
                if (before(e, front_)) {
                    // Demote the cached front; the new entry is even
                    // earlier.
                    heap.push_back(front_);
                    siftUp(heap.size() - 1);
                    front_ = e;
                    return;
                }
            } else if (heap.empty() || before(e, heap.front())) {
                // The heap top is its minimum, so an entry ordering
                // before it orders before every heap entry — exactly
                // the front-cache invariant.
                front_ = e;
                hasFront_ = true;
                return;
            }
        }
        heap.push_back(e);
        siftUp(heap.size() - 1);
    }

    /** Remove and return the next entry; audits (when, seq). */
    HeapEntry
    takeNext()
    {
        HeapEntry top;
        if (hasFront_) {
            top = front_;
            hasFront_ = false;
            ++frontHits_;
        } else {
            assert(!heap.empty());
            top = heap.front();
            popHeapTop();
        }
        // Tie auditor: pops must leave in strictly increasing
        // (when, seq) order — the seq tie-break is what makes
        // same-timestamp ties deterministic, so a non-increasing pop
        // means a seq collision or a corrupted heap. Two integer
        // compares; always on.
        if (poppedAny &&
            (top.when < lastPoppedWhen ||
             (top.when == lastPoppedWhen && top.seq <= lastPoppedSeq)))
            auditFail("EventQueue tie auditor",
                      "event popped out of (timestamp, seq) order: a "
                      "same-timestamp tie is not fixed by the seq "
                      "tie-break");
        poppedAny = true;
        lastPoppedWhen = top.when;
        lastPoppedSeq = top.seq;
        return top;
    }
};

} // namespace aitax::sim

#endif // AITAX_SIM_EVENT_QUEUE_H
