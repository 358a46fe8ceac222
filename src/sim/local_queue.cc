#include "sim/local_queue.h"

#include <cassert>

namespace aitax::sim {

LocalEventQueue::LocalEventQueue(Simulator &sim, std::size_t streams)
    : sim_(sim), streams_(streams)
{
    assert(streams > 0);
}

void
LocalEventQueue::push(std::size_t stream, TimeNs when, EventFn fn)
{
    assert(stream < streams_.size());
    // Claim the global FIFO seq now, exactly where a schedule() call
    // would have — parking must not change tie order.
    const std::uint64_t seq = sim_.reserveSeqs(1);
    if (sim_.mode() == EngineMode::Reference) {
        sim_.scheduleAtSeq(when, seq, std::move(fn));
        return;
    }

    Stream &st = streams_[stream];
    assert(!st.hasHead() || st.entries.back().when <= when);
    const bool was_empty = !st.hasHead();
    st.entries.push_back(Entry{when, seq, std::move(fn)});

    if (residentStream_ == kNone) {
        install(stream);
        return;
    }
    if (!was_empty || stream == residentStream_)
        return; // stream head unchanged; resident stays the minimum

    // A previously-empty stream grew a head: it may now be the
    // component's earliest entry.
    const Entry &cand = st.front();
    Entry &res = streams_[residentStream_].front();
    if (cand.when < res.when ||
        (cand.when == res.when && cand.seq < res.seq)) {
        sim_.cancel(residentId_);
        residentStream_ = kNone;
        residentId_ = 0;
        install(stream);
    }
}

void
LocalEventQueue::install(std::size_t stream)
{
    Entry &e = streams_[stream].front();
    residentStream_ = stream;
    residentId_ = sim_.scheduleAtSeq(e.when, e.seq, [this] { fire(); });
}

void
LocalEventQueue::installEarliest()
{
    std::size_t best = kNone;
    for (std::size_t s = 0; s < streams_.size(); ++s) {
        Stream &st = streams_[s];
        if (!st.hasHead())
            continue;
        if (best == kNone) {
            best = s;
            continue;
        }
        const Entry &a = st.front();
        const Entry &b = streams_[best].front();
        if (a.when < b.when || (a.when == b.when && a.seq < b.seq))
            best = s;
    }
    if (best != kNone)
        install(best);
}

void
LocalEventQueue::fire()
{
    assert(residentStream_ != kNone);
    Stream &st = streams_[residentStream_];
    Entry e = std::move(st.front());
    ++st.head;
    if (st.head == st.entries.size()) {
        // Drained: recycle the buffer (capacity kept for reuse).
        st.entries.clear();
        st.head = 0;
    }
    residentStream_ = kNone;
    residentId_ = 0;
    // Install the successor *before* running the callback, matching
    // the chain-before-submit order the tie contract expects.
    installEarliest();
    e.fn();
}

} // namespace aitax::sim
