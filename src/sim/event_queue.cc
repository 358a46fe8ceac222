#include "sim/event_queue.h"

#include <algorithm>

namespace aitax::sim {

EventFn *
EventQueue::newSlot()
{
    const std::size_t at = slotCount_ % kBlockSlots;
    if (at == 0)
        blocks_.push_back(std::make_unique<SlotBlock>());
    ++slotCount_;
    return &blocks_.back()->slots[at];
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

} // namespace aitax::sim
