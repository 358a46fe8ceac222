/**
 * @file
 * Execution timeline tracer — our stand-in for the Snapdragon
 * Profiler views in Fig 6 of the paper.
 *
 * Components record busy intervals on named tracks (CPU cores, GPU,
 * cDSP), byte counters (AXI traffic) and point events (context
 * switches, migrations). The trace can then be bucketed into
 * utilization series and rendered as text.
 *
 * Storage is interned and columnar: strings are resolved to ids once
 * (components do this at construction), and the only record path is
 * three array appends keyed by those ids — no string compares, no
 * per-event allocations once capacity has grown — so the probe effect
 * of our own instrumentation stays negligible (Section III-D is about
 * exactly this failure mode). Raw data is read back only through the
 * same columnar stores.
 */

#ifndef AITAX_TRACE_TRACER_H
#define AITAX_TRACE_TRACER_H

#include <cstdint>
#include <string>
#include <string_view>
#include <unordered_map>
#include <utility>
#include <vector>

#include "sim/arena.h"
#include "sim/audit.h"
#include "sim/time.h"
#include "trace/ids.h"

namespace aitax::trace {

/**
 * Collects intervals/events/counters during a simulation run.
 *
 * Column growth is arena-routable: constructed with a sim::Arena the
 * store columns bump-allocate from it (zero heap traffic even while
 * capacity grows — asserted by tests/test_trace_alloc.cc), and with no
 * arena they fall back to the heap. Copying a store always produces a
 * heap-backed copy, and assignment keeps the destination's allocator,
 * so warm-up snapshots (heap-owned, outliving every per-run arena)
 * never capture a pointer into an arena about to be reset.
 */
class Tracer
{
  public:
    /** Arena-routable column type (heap fallback on null arena). */
    template <typename T>
    using Column = std::vector<T, sim::ArenaAllocator<T>>;

    /** Columnar (SoA) interval storage for one track. */
    struct TrackStore
    {
        Column<LabelId> labels;
        Column<sim::TimeNs> begins;
        Column<sim::TimeNs> ends;

        TrackStore() = default;
        explicit TrackStore(sim::Arena *arena)
            : labels(sim::ArenaAllocator<LabelId>(arena)),
              begins(sim::ArenaAllocator<sim::TimeNs>(arena)),
              ends(sim::ArenaAllocator<sim::TimeNs>(arena))
        {
        }
        /** Copies are heap-backed: they may outlive the source arena. */
        TrackStore(const TrackStore &o) : TrackStore() { *this = o; }
        /** Keeps this store's own allocator (POCCA is false). */
        TrackStore &operator=(const TrackStore &) = default;
        TrackStore(TrackStore &&) noexcept = default;
        TrackStore &operator=(TrackStore &&) = default;

        std::size_t size() const { return begins.size(); }
        bool empty() const { return begins.empty(); }
    };

    /** Columnar point-event storage. */
    struct EventStore
    {
        Column<EventKindId> kinds;
        Column<LabelId> details;
        Column<sim::TimeNs> whens;

        EventStore() = default;
        explicit EventStore(sim::Arena *arena)
            : kinds(sim::ArenaAllocator<EventKindId>(arena)),
              details(sim::ArenaAllocator<LabelId>(arena)),
              whens(sim::ArenaAllocator<sim::TimeNs>(arena))
        {
        }
        EventStore(const EventStore &o) : EventStore() { *this = o; }
        EventStore &operator=(const EventStore &) = default;
        EventStore(EventStore &&) noexcept = default;
        EventStore &operator=(EventStore &&) = default;

        std::size_t size() const { return whens.size(); }
        bool empty() const { return whens.empty(); }
    };

    /** Columnar counter-sample storage for one counter. */
    struct CounterStore
    {
        Column<sim::TimeNs> whens;
        Column<double> values;

        CounterStore() = default;
        explicit CounterStore(sim::Arena *arena)
            : whens(sim::ArenaAllocator<sim::TimeNs>(arena)),
              values(sim::ArenaAllocator<double>(arena))
        {
        }
        CounterStore(const CounterStore &o) : CounterStore() { *this = o; }
        CounterStore &operator=(const CounterStore &) = default;
        CounterStore(CounterStore &&) noexcept = default;
        CounterStore &operator=(CounterStore &&) = default;

        std::size_t size() const { return whens.size(); }
        bool empty() const { return whens.empty(); }
    };

    /** @param arena backs column growth; nullptr = plain heap. */
    explicit Tracer(sim::Arena *arena = nullptr)
        : arena_(arena), events_(arena)
    {
    }

    /** Enable/disable collection (disabled tracing is free). */
    void setEnabled(bool on) { enabled = on; }
    bool isEnabled() const { return enabled; }

    // --- Interning ---------------------------------------------------
    // Resolve a string to an id, creating it on first sight. Interning
    // works regardless of the enabled flag so components can resolve
    // ids at construction; steady-state re-interning of a known string
    // is a hash lookup with no allocation.

    TrackId internTrack(std::string_view name);
    LabelId internLabel(std::string_view name);
    EventKindId internEventKind(std::string_view kind);
    CounterId internCounter(std::string_view name);

    /** Lookup without creating; invalid id if never interned. */
    TrackId findTrack(std::string_view name) const;
    CounterId findCounter(std::string_view name) const;
    EventKindId findEventKind(std::string_view kind) const;

    // --- Record path --------------------------------------------------
    // Steady state (capacity grown) performs no heap allocation and no
    // string compares; asserted by tests/test_trace_alloc.cc.

    void
    recordInterval(TrackId track, LabelId label, sim::TimeNs begin,
                   sim::TimeNs end)
    {
        AITAX_AUDIT_OWNER(owner_, "Tracer");
        if (!enabled || end <= begin)
            return;
        TrackStore &t = tracks_[track.value];
        t.labels.push_back(label);
        t.begins.push_back(begin);
        t.ends.push_back(end);
    }

    void
    recordEvent(EventKindId kind, LabelId detail, sim::TimeNs when)
    {
        AITAX_AUDIT_OWNER(owner_, "Tracer");
        if (!enabled)
            return;
        events_.kinds.push_back(kind);
        events_.details.push_back(detail);
        events_.whens.push_back(when);
        ++kindCounts_[kind.value];
    }

    void
    recordCounter(CounterId counter, sim::TimeNs when, double value)
    {
        AITAX_AUDIT_OWNER(owner_, "Tracer");
        if (!enabled)
            return;
        CounterStore &c = counters_[counter.value];
        c.whens.push_back(when);
        c.values.push_back(value);
    }

    /**
     * Drop all recorded data but keep interned ids valid and retain
     * vector capacity, so a cleared tracer records without
     * reallocating.
     */
    void clear();

    /**
     * Replace this tracer's entire contents — interner tables, ids
     * and recorded data — with a copy of @p src, so recording resumes
     * exactly where @p src left off. Used by warm-up prefix snapshots:
     * a restored run's trace must be byte-identical to one that
     * executed the warm-up itself, which requires identical intern id
     * assignment, not just identical events. Thread ownership is NOT
     * copied; this tracer stays bound to its own thread.
     */
    void cloneFrom(const Tracer &src);

    // --- Columnar read API --------------------------------------------

    std::size_t trackCount() const { return tracks_.size(); }
    const TrackStore &track(TrackId id) const { return tracks_[id.value]; }
    const std::string &trackName(TrackId id) const
    {
        return trackNames_[id.value];
    }
    /** Ids of tracks with >= 1 interval, sorted by track name. */
    std::vector<TrackId> sortedNonEmptyTracks() const;

    const EventStore &eventStore() const { return events_; }
    /** Interned labels: ids 0 .. labelCount() - 1. */
    std::size_t labelCount() const { return labelNames_.size(); }
    const std::string &labelName(LabelId id) const
    {
        return labelNames_[id.value];
    }
    /** Interned event kinds: ids 0 .. eventKindCount() - 1. */
    std::size_t eventKindCount() const { return kindNames_.size(); }
    const std::string &eventKindName(EventKindId id) const
    {
        return kindNames_[id.value];
    }
    const CounterStore &counterStore(CounterId id) const
    {
        return counters_[id.value];
    }
    const std::string &counterName(CounterId id) const
    {
        return counterNames_[id.value];
    }

    /** Totals across all tracks/counters (diagnostics, benchmarks). */
    std::size_t intervalCount() const;
    std::size_t eventCount() const { return events_.size(); }
    std::size_t counterSampleCount() const;

    // --- Analytics (renderer API, keyed by name) ---------------------

    /** Count events of a given kind (maintained at record time). */
    std::int64_t countEvents(std::string_view kind) const;

    /**
     * Fraction of [t0, t1) each bucket of a track spends busy.
     * Full-bucket coverage is accumulated in closed form (O(1) per
     * interval plus one prefix-sum pass), not per-bucket overlap.
     * @return one utilization value in [0,1] per bucket.
     */
    std::vector<double> utilization(std::string_view track,
                                    sim::TimeNs t0, sim::TimeNs t1,
                                    std::size_t buckets) const;

    /** Sum of a counter per bucket over [t0, t1). */
    std::vector<double> counterRate(std::string_view name,
                                    sim::TimeNs t0, sim::TimeNs t1,
                                    std::size_t buckets) const;

  private:
    /** Heterogeneous string_view lookup into string-keyed maps. */
    struct SvHash
    {
        using is_transparent = void;
        std::size_t
        operator()(std::string_view s) const noexcept
        {
            return std::hash<std::string_view>{}(s);
        }
    };
    // The interner is lookup-only: nothing ever iterates it, so its
    // hash order cannot reach a trace or report. All ordered reads go
    // through the dense name vectors / tracksByName_ (sorted).
    using InternMap = // aitax-lint: allow(unordered-container)
        std::unordered_map<std::string, std::uint32_t, SvHash,
                           std::equal_to<>>;

    static std::uint32_t intern(InternMap &map,
                                std::vector<std::string> &names,
                                std::string_view name);
    static std::uint32_t find(const InternMap &map,
                              std::string_view name);

    bool enabled = true;

    /** Thread-ownership sentinel; checks compiled in audited builds. */
    sim::OwnershipSentinel owner_;

    /** Backs column growth for every store; nullptr = heap. */
    sim::Arena *arena_ = nullptr;

    std::vector<TrackStore> tracks_;
    std::vector<std::string> trackNames_;
    /** All track ids, kept sorted by name (updated on intern). */
    std::vector<TrackId> tracksByName_;
    InternMap trackIds_;

    std::vector<std::string> labelNames_;
    InternMap labelIds_;

    EventStore events_;
    std::vector<std::string> kindNames_;
    std::vector<std::int64_t> kindCounts_;
    InternMap kindIds_;

    std::vector<CounterStore> counters_;
    std::vector<std::string> counterNames_;
    InternMap counterIds_;
};

/**
 * A name built once by its owner, whose label is interned on first
 * use and then cached, so steady-state records skip both the string
 * and the interner. Nothing is interned until resolve() is called
 * with tracing on. The cached id belongs to one tracer.
 */
class LazyLabel
{
  public:
    explicit LazyLabel(std::string name) : name_(std::move(name)) {}

    const std::string &name() const { return name_; }

    /** The interned label; invalid while @p tracer is disabled. */
    LabelId
    resolve(Tracer &tracer)
    {
        if (!id_.valid() && tracer.isEnabled())
            id_ = tracer.internLabel(name_);
        return id_;
    }

  private:
    std::string name_;
    LabelId id_;
};

} // namespace aitax::trace

#endif // AITAX_TRACE_TRACER_H
