#include "sim/event_queue.h"

#include <algorithm>
#include <cassert>
#include <utility>

namespace aitax::sim {

namespace {

constexpr std::uint64_t kSlotMask = 0xffffffffull;

std::uint32_t
slotOf(EventId id)
{
    return static_cast<std::uint32_t>(id & kSlotMask);
}

std::uint32_t
genOf(EventId id)
{
    return static_cast<std::uint32_t>(id >> 32);
}

} // namespace

std::uint32_t
EventQueue::allocSlot()
{
    if (!freeSlots.empty()) {
        const std::uint32_t slot = freeSlots.back();
        freeSlots.pop_back();
        return slot;
    }
    slots.emplace_back();
    return static_cast<std::uint32_t>(slots.size() - 1);
}

void
EventQueue::freeSlot(std::uint32_t slot)
{
    Slot &s = slots[slot];
    s.live = false;
    s.fn.reset();
    // Advance the generation so outstanding ids for this slot go
    // stale; never hand out generation 0 so EventId 0 stays invalid.
    if (++s.gen == 0)
        s.gen = 1;
    freeSlots.push_back(slot);
}

void
EventQueue::insertEntry(const HeapEntry &e)
{
    if (!fast_) {
        heap.push_back(e);
        siftUp(heap.size() - 1);
        return;
    }
    if (hasFront_) {
        if (before(e, front_)) {
            // Demote the cached front; the new entry is even earlier.
            heap.push_back(front_);
            siftUp(heap.size() - 1);
            front_ = e;
            return;
        }
    } else if (heap.empty() || before(e, heap.front())) {
        // The heap top is its minimum (stale entries included), so an
        // entry ordering before it orders before every heap entry —
        // exactly the front-cache invariant.
        front_ = e;
        hasFront_ = true;
        return;
    }
    heap.push_back(e);
    siftUp(heap.size() - 1);
}

EventId
EventQueue::schedule(TimeNs when, EventFn &&fn)
{
    const std::uint32_t slot = allocSlot();
    Slot &s = slots[slot];
    s.fn = std::move(fn);
    s.live = true;
    insertEntry(HeapEntry{when, nextSeq++, slot, s.gen});
    ++liveCount;
    return (static_cast<EventId>(s.gen) << 32) | slot;
}

EventId
EventQueue::scheduleWithSeq(TimeNs when, std::uint64_t seq, EventFn &&fn)
{
    assert(seq < nextSeq && "seq must come from reserveSeqs()");
    const std::uint32_t slot = allocSlot();
    Slot &s = slots[slot];
    s.fn = std::move(fn);
    s.live = true;
    insertEntry(HeapEntry{when, seq, slot, s.gen});
    ++liveCount;
    return (static_cast<EventId>(s.gen) << 32) | slot;
}

void
EventQueue::cancel(EventId id)
{
    const std::uint32_t slot = slotOf(id);
    if (slot >= slots.size())
        return;
    Slot &s = slots[slot];
    if (!s.live || s.gen != genOf(id))
        return; // already fired, cancelled, or slot reused
    freeSlot(slot);
    --liveCount;
    // The heap entry is dropped lazily; bound the garbage so a
    // cancel-heavy workload cannot grow the heap past O(live).
    if (liveCount == 0) {
        heap.clear();
        hasFront_ = false;
    } else if (heap.size() > 2 * liveCount + 64) {
        compact();
    }
}

void
EventQueue::siftUp(std::size_t i)
{
    HeapEntry e = heap[i];
    while (i > 0) {
        const std::size_t parent = (i - 1) / kArity;
        if (!before(e, heap[parent]))
            break;
        heap[i] = heap[parent];
        i = parent;
    }
    heap[i] = e;
}

void
EventQueue::siftDown(std::size_t i)
{
    const std::size_t n = heap.size();
    HeapEntry e = heap[i];
    for (;;) {
        const std::size_t first = i * kArity + 1;
        if (first >= n)
            break;
        const std::size_t last = std::min(first + kArity, n);
        std::size_t best = first;
        for (std::size_t c = first + 1; c < last; ++c)
            if (before(heap[c], heap[best]))
                best = c;
        if (!before(heap[best], e))
            break;
        heap[i] = heap[best];
        i = best;
    }
    heap[i] = e;
}

void
EventQueue::popHeapTop()
{
    heap.front() = heap.back();
    heap.pop_back();
    if (!heap.empty())
        siftDown(0);
}

void
EventQueue::dropStaleHead()
{
    while (!heap.empty() && stale(heap.front()))
        popHeapTop();
}

void
EventQueue::compact()
{
    const auto is_stale = [this](const HeapEntry &e) { return stale(e); };
    heap.erase(std::remove_if(heap.begin(), heap.end(), is_stale),
               heap.end());
    if (heap.empty())
        return;
    // Implicit heaps rebuild bottom-up in O(n).
    for (std::size_t i = heap.size() / kArity + 1; i-- > 0;)
        siftDown(i);
}

TimeNs
EventQueue::nextTime() const
{
    auto *self = const_cast<EventQueue *>(this);
    if (self->hasFront_ && self->stale(self->front_))
        self->hasFront_ = false;
    if (self->hasFront_)
        return self->front_.when;
    self->dropStaleHead();
    assert(!heap.empty());
    return heap.front().when;
}

EventQueue::HeapEntry
EventQueue::takeNext()
{
    if (hasFront_ && stale(front_))
        hasFront_ = false;
    HeapEntry top;
    if (hasFront_) {
        top = front_;
        hasFront_ = false;
        ++frontHits_;
    } else {
        dropStaleHead();
        assert(!heap.empty());
        top = heap.front();
        popHeapTop();
    }
    // Tie auditor: pops must leave in strictly increasing (when, seq)
    // order — the seq tie-break is what makes same-timestamp ties
    // deterministic, so a non-increasing pop means a seq collision or
    // a corrupted heap. Two integer compares; always on.
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

TimeNs
EventQueue::popAndRun()
{
    const HeapEntry top = takeNext();
    // Move the callback out and retire the entry before invoking: the
    // callback may schedule new events, which mutates heap and slots.
    EventFn fn = std::move(slots[top.slot].fn);
    freeSlot(top.slot);
    --liveCount;
    fn();
    return top.when;
}

TimeNs
EventQueue::runNext(TimeNs &now)
{
    const HeapEntry top = takeNext();
    EventFn fn = std::move(slots[top.slot].fn);
    freeSlot(top.slot);
    --liveCount;
    // Skip-ahead: the clock jumps straight to the event's timestamp
    // before its body runs, so now() inside the callback is the
    // event's own time.
    now = top.when;
    fn();
    return top.when;
}

} // namespace aitax::sim
