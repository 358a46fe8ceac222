/**
 * @file
 * Zero-allocation contract of the tracer's id-based record path.
 *
 * Overrides global operator new to count heap allocations, then
 * asserts that steady-state recording (ids resolved, vector capacity
 * grown via a warm-up pass + clear()) performs none. This is the
 * probe-effect guarantee docs/PERFORMANCE.md documents: once a
 * component has interned its ids, tracing costs three array appends
 * per record.
 *
 * The Chrome-trace serializer is held to the same idiom: it reserves
 * its output once, so its allocation count does not grow with the
 * trace.
 *
 * This lives in its own test binary so the operator new override
 * cannot perturb other suites.
 */

#include <gtest/gtest.h>

#include <atomic>
#include <cstdlib>
#include <new>
#include <string>

#include "trace/chrome_trace.h"
#include "trace/tracer.h"

namespace {

std::atomic<std::size_t> g_allocCount{0};
std::atomic<bool> g_counting{false};

} // namespace

void *
operator new(std::size_t size)
{
    if (g_counting.load(std::memory_order_relaxed))
        g_allocCount.fetch_add(1, std::memory_order_relaxed);
    if (void *p = std::malloc(size ? size : 1))
        return p;
    throw std::bad_alloc();
}

void *
operator new[](std::size_t size)
{
    return ::operator new(size);
}

// Kept out of line: inlined into a `delete` expression, GCC sees
// free() on an operator-new pointer (-Wmismatched-new-delete).
[[gnu::noinline]] void
operator delete(void *p) noexcept
{
    std::free(p);
}

[[gnu::noinline]] void
operator delete(void *p, std::size_t) noexcept
{
    std::free(p);
}

void
operator delete[](void *p) noexcept
{
    std::free(p);
}

void
operator delete[](void *p, std::size_t) noexcept
{
    std::free(p);
}

namespace aitax::trace {
namespace {

constexpr int kEvents = 50000;

struct CountingScope
{
    CountingScope()
    {
        g_allocCount.store(0, std::memory_order_relaxed);
        g_counting.store(true, std::memory_order_relaxed);
    }
    ~CountingScope() { g_counting.store(false, std::memory_order_relaxed); }
    std::size_t
    count() const
    {
        return g_allocCount.load(std::memory_order_relaxed);
    }
};

/** recordBurst's layout: record i starts at i * kStepNs. */
constexpr sim::TimeNs kStepNs = 200;
constexpr sim::TimeNs kBusyNs = 100;
constexpr sim::TimeNs kMarkNs = 50;
constexpr double kSampleBytes = 64.0;

void
recordBurst(Tracer &t, TrackId track, LabelId label, EventKindId kind,
            CounterId ctr)
{
    sim::TimeNs now = 0;
    for (int i = 0; i < kEvents; ++i) {
        t.recordInterval(track, label, now, now + kBusyNs);
        t.recordEvent(kind, label, now + kMarkNs);
        t.recordCounter(ctr, now + kMarkNs, kSampleBytes);
        now += kStepNs;
    }
}

TEST(TraceAlloc, SteadyStateIdPathIsAllocationFree)
{
    Tracer t;
    const TrackId track = t.internTrack("cpu0");
    const LabelId label = t.internLabel("job");
    const EventKindId kind = t.internEventKind("context_switch");
    const CounterId ctr = t.internCounter("axi_bytes");

    // Warm-up: grow every store to full capacity, then drop the data.
    // clear() keeps the capacity and the interned ids.
    recordBurst(t, track, label, kind, ctr);
    t.clear();

    CountingScope scope;
    recordBurst(t, track, label, kind, ctr);
    EXPECT_EQ(scope.count(), 0u)
        << "id-based record path allocated in steady state";
    EXPECT_EQ(t.intervalCount(), static_cast<std::size_t>(kEvents));
}

TEST(TraceAlloc, ArenaBackedColumnGrowthIsHeapFree)
{
    // An arena-backed tracer must keep even *cold* column growth off
    // the heap: every reallocation while capacity grows from zero is
    // served by the arena. Pre-size the arena (its own blocks come
    // from operator new) with a throwaway burst, then reset — the
    // arena coalesces to one block at its high-water mark, so the
    // measured burst needs no new blocks.
    sim::Arena arena;
    {
        Tracer warm(&arena);
        recordBurst(warm, warm.internTrack("cpu0"),
                    warm.internLabel("job"),
                    warm.internEventKind("context_switch"),
                    warm.internCounter("axi_bytes"));
    }
    arena.reset();

    Tracer t(&arena);
    const TrackId track = t.internTrack("cpu0");
    const LabelId label = t.internLabel("job");
    const EventKindId kind = t.internEventKind("context_switch");
    const CounterId ctr = t.internCounter("axi_bytes");

    CountingScope scope;
    recordBurst(t, track, label, kind, ctr);
    EXPECT_EQ(scope.count(), 0u)
        << "arena-backed column growth touched the heap";
    EXPECT_EQ(t.intervalCount(), static_cast<std::size_t>(kEvents));
    EXPECT_GT(arena.usedBytes(), 0u);
}

TEST(TraceAlloc, CloneToHeapTracerLeavesArenaBehind)
{
    // A warm-up snapshot's tracer is heap-owned and outlives per-run
    // arenas; cloneFrom must therefore deep-copy arena-backed columns
    // into heap storage. Destroy the arena before reading the clone —
    // a leaked arena pointer would show up under ASan here, so every
    // column of the clone is read back below.
    Tracer snapshot;
    TrackId track;
    LabelId label;
    EventKindId kind;
    {
        sim::Arena arena;
        Tracer live(&arena);
        track = live.internTrack("cpu0");
        label = live.internLabel("job");
        kind = live.internEventKind("context_switch");
        recordBurst(live, track, label, kind,
                    live.internCounter("axi_bytes"));
        snapshot.cloneFrom(live);
        arena.reset();
    }
    // cloneFrom keeps id assignment, so live's ids name the clone's
    // entries too.
    ASSERT_EQ(snapshot.findTrack("cpu0"), track);
    ASSERT_EQ(snapshot.findEventKind("context_switch"), kind);
    EXPECT_EQ(snapshot.labelName(label), "job");
    const CounterId ctr = snapshot.findCounter("axi_bytes");
    ASSERT_TRUE(ctr.valid());

    const auto n = static_cast<std::size_t>(kEvents);
    const Tracer::TrackStore &intervals = snapshot.track(track);
    const Tracer::EventStore &events = snapshot.eventStore();
    const Tracer::CounterStore &samples = snapshot.counterStore(ctr);
    ASSERT_EQ(intervals.size(), n);
    ASSERT_EQ(intervals.labels.size(), n);
    ASSERT_EQ(intervals.ends.size(), n);
    ASSERT_EQ(events.size(), n);
    ASSERT_EQ(events.kinds.size(), n);
    ASSERT_EQ(events.details.size(), n);
    ASSERT_EQ(samples.size(), n);
    ASSERT_EQ(samples.values.size(), n);

    std::size_t mismatches = 0;
    for (std::size_t i = 0; i < n; ++i) {
        const sim::TimeNs start = static_cast<sim::TimeNs>(i) * kStepNs;
        const bool same =
            intervals.labels[i] == label && intervals.begins[i] == start &&
            intervals.ends[i] == start + kBusyNs &&
            events.kinds[i] == kind && events.details[i] == label &&
            events.whens[i] == start + kMarkNs &&
            samples.whens[i] == start + kMarkNs &&
            samples.values[i] == kSampleBytes;
        if (!same && mismatches++ == 0)
            ADD_FAILURE() << "clone differs from the recording at " << i;
    }
    EXPECT_EQ(mismatches, 0u);
}

TEST(TraceAlloc, DisabledRecordingIsAllocationFree)
{
    // Disabled tracing must be free even with cold (capacity-zero)
    // stores: the record path checks the enabled flag before it
    // touches a column, so nothing ever grows.
    Tracer t;
    const TrackId track = t.internTrack("cpu0");
    const LabelId label = t.internLabel("job");
    const EventKindId kind = t.internEventKind("migration");
    const CounterId ctr = t.internCounter("axi_bytes");
    t.setEnabled(false);
    CountingScope scope;
    for (int i = 0; i < 1000; ++i) {
        t.recordInterval(track, label, i, i + 10);
        t.recordEvent(kind, label, i);
        t.recordCounter(ctr, i, 1.0);
    }
    EXPECT_EQ(scope.count(), 0u);
    EXPECT_EQ(t.intervalCount(), 0u);
}

/**
 * A trace of @p n intervals over four tracks and eight labels (some
 * needing escapes, some past the short-string buffer), with a point
 * event every tenth interval.
 */
void
recordTrace(Tracer &t, int n)
{
    TrackId tracks[4];
    for (int i = 0; i < 4; ++i)
        tracks[i] = t.internTrack("cpu" + std::to_string(i));
    LabelId labels[8];
    for (int i = 0; i < 8; ++i)
        labels[i] = t.internLabel("inference \"job\"\t#" +
                                  std::to_string(i * 1000003));
    const EventKindId kind = t.internEventKind("context_switch");
    sim::TimeNs now = 0;
    for (int i = 0; i < n; ++i) {
        t.recordInterval(tracks[i % 4], labels[i % 8], now,
                         now + 1 + i % 977);
        if (i % 10 == 0)
            t.recordEvent(kind, labels[(i / 10) % 8], now);
        now += 1237;
    }
}

/** Heap allocations made by one chromeTraceString call on @p t. */
std::size_t
serializeAllocations(const Tracer &t)
{
    CountingScope scope;
    const std::string json = chromeTraceString(t);
    EXPECT_GT(json.size(), 0u);
    return scope.count();
}

TEST(TraceAlloc, SerializationReservesItsOutputOnce)
{
    // The serializer sizes its output from an upper bound before
    // writing, so a trace 100x longer over the same names costs the
    // same allocations: the per-call name tables and one buffer that
    // never regrows.
    Tracer small;
    recordTrace(small, 1000);
    Tracer large;
    recordTrace(large, 100000);
    EXPECT_EQ(serializeAllocations(small), serializeAllocations(large));
}

} // namespace
} // namespace aitax::trace
