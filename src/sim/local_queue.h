/**
 * @file
 * Component-local event queue feeding the global heap lazily.
 *
 * A component that generates many future events (interference ticks,
 * accelerator completions) would otherwise park them all in the global
 * 4-ary heap, deepening every unrelated pop. A LocalEventQueue keeps
 * the component's entries in per-stream FIFO buffers and installs only
 * the earliest one in the global queue at a time; when it fires, the
 * next-earliest is installed *before* the callback runs, mirroring the
 * chain-before-submit order PR 6 established for interference.
 *
 * Ordering is exact, not approximate: every push reserves its global
 * FIFO seq at push time (reserveSeqs(1) — the same number a plain
 * schedule() call would have consumed), so pops interleave with the
 * rest of the simulation in the identical (when, seq) order the
 * Reference engine produces by pre-scheduling everything. In Reference
 * mode push() does exactly that — it forwards straight to the global
 * queue — so the two engines stay byte-comparable through one code
 * path. The differential tier proves it.
 *
 * Contract: pushes must be non-decreasing in time *per stream* (FIFO
 * streams), and entries are never cancelled individually — the queue
 * dies with its component and the simulator.
 */

#ifndef AITAX_SIM_LOCAL_QUEUE_H
#define AITAX_SIM_LOCAL_QUEUE_H

#include <cstddef>
#include <cstdint>
#include <vector>

#include "sim/simulator.h"

namespace aitax::sim {

class LocalEventQueue
{
  public:
    /** @param streams number of independent FIFO streams. */
    LocalEventQueue(Simulator &sim, std::size_t streams);

    LocalEventQueue(const LocalEventQueue &) = delete;
    LocalEventQueue &operator=(const LocalEventQueue &) = delete;

    /**
     * Schedule @p fn at absolute time @p when on @p stream. Reserves
     * the global seq immediately; in Fast mode the entry is parked
     * locally until it is the component's earliest.
     */
    void push(std::size_t stream, TimeNs when, EventFn fn);

  private:
    struct Entry
    {
        TimeNs when;
        std::uint64_t seq;
        EventFn fn;
    };
    /** FIFO buffer with a consume cursor (storage reused per run). */
    struct Stream
    {
        std::vector<Entry> entries;
        std::size_t head = 0;

        bool hasHead() const { return head < entries.size(); }
        Entry &front() { return entries[head]; }
    };

    static constexpr std::size_t kNone = static_cast<std::size_t>(-1);

    void install(std::size_t stream);
    void installEarliest();
    void fire();

    Simulator &sim_;
    std::vector<Stream> streams_;
    std::size_t residentStream_ = kNone;
    EventId residentId_ = 0;
};

} // namespace aitax::sim

#endif // AITAX_SIM_LOCAL_QUEUE_H
