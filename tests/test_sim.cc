/**
 * @file
 * Unit tests for the discrete-event simulation kernel.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <cstdint>
#include <memory>
#include <type_traits>
#include <utility>
#include <vector>

#include "sim/event_queue.h"
#include "sim/inline_function.h"
#include "sim/random.h"
#include "sim/simulator.h"
#include "sim/time.h"
#include "sim/work.h"

namespace aitax::sim {
namespace {

// --- time ------------------------------------------------------------

TEST(Time, Conversions)
{
    EXPECT_EQ(msToNs(1.0), 1'000'000);
    EXPECT_EQ(usToNs(1.0), 1'000);
    EXPECT_EQ(secToNs(1.0), 1'000'000'000);
    EXPECT_DOUBLE_EQ(nsToMs(2'500'000), 2.5);
    EXPECT_DOUBLE_EQ(nsToUs(1'500), 1.5);
}

TEST(Time, FormatPicksUnit)
{
    EXPECT_EQ(formatDuration(500), "500 ns");
    EXPECT_EQ(formatDuration(1'500), "1.500 us");
    EXPECT_EQ(formatDuration(2'340'000), "2.340 ms");
    EXPECT_EQ(formatDuration(3'000'000'000), "3.000 s");
}

TEST(Time, FormatNegative)
{
    EXPECT_EQ(formatDuration(-2'000'000), "-2.000 ms");
}

// --- RandomStream ----------------------------------------------------

TEST(RandomStream, DeterministicForSameSeed)
{
    RandomStream a(42, "s");
    RandomStream b(42, "s");
    for (int i = 0; i < 100; ++i)
        EXPECT_EQ(a.nextU64(), b.nextU64());
}

TEST(RandomStream, DifferentStreamNamesDiffer)
{
    RandomStream a(42, "alpha");
    RandomStream b(42, "beta");
    int same = 0;
    for (int i = 0; i < 64; ++i)
        same += (a.nextU64() == b.nextU64());
    EXPECT_LT(same, 2);
}

TEST(RandomStream, DoubleInUnitInterval)
{
    RandomStream r(7);
    for (int i = 0; i < 10'000; ++i) {
        const double x = r.nextDouble();
        EXPECT_GE(x, 0.0);
        EXPECT_LT(x, 1.0);
    }
}

TEST(RandomStream, UniformRespectsBounds)
{
    RandomStream r(7);
    for (int i = 0; i < 1'000; ++i) {
        const double x = r.uniform(-3.0, 5.0);
        EXPECT_GE(x, -3.0);
        EXPECT_LT(x, 5.0);
    }
}

TEST(RandomStream, UniformIntInclusive)
{
    RandomStream r(11);
    bool saw_lo = false;
    bool saw_hi = false;
    for (int i = 0; i < 10'000; ++i) {
        const auto x = r.uniformInt(2, 5);
        EXPECT_GE(x, 2);
        EXPECT_LE(x, 5);
        saw_lo |= (x == 2);
        saw_hi |= (x == 5);
    }
    EXPECT_TRUE(saw_lo);
    EXPECT_TRUE(saw_hi);
}

TEST(RandomStream, GaussianMoments)
{
    RandomStream r(13);
    double sum = 0.0;
    double sq = 0.0;
    const int n = 50'000;
    for (int i = 0; i < n; ++i) {
        const double x = r.gaussian();
        sum += x;
        sq += x * x;
    }
    EXPECT_NEAR(sum / n, 0.0, 0.02);
    EXPECT_NEAR(sq / n, 1.0, 0.03);
}

TEST(RandomStream, LognormalMedianNearOne)
{
    RandomStream r(17);
    std::vector<double> xs;
    for (int i = 0; i < 10'001; ++i)
        xs.push_back(r.lognormalFactor(0.3));
    std::sort(xs.begin(), xs.end());
    EXPECT_NEAR(xs[xs.size() / 2], 1.0, 0.05);
    for (double x : xs)
        EXPECT_GT(x, 0.0);
}

TEST(RandomStream, LognormalZeroSigmaIsExactlyOne)
{
    RandomStream r(17);
    EXPECT_DOUBLE_EQ(r.lognormalFactor(0.0), 1.0);
    EXPECT_DOUBLE_EQ(r.lognormalFactor(-1.0), 1.0);
}

TEST(RandomStream, BernoulliFrequency)
{
    RandomStream r(19);
    int hits = 0;
    const int n = 20'000;
    for (int i = 0; i < n; ++i)
        hits += r.bernoulli(0.25);
    EXPECT_NEAR(static_cast<double>(hits) / n, 0.25, 0.02);
}

TEST(RandomStream, ExponentialMean)
{
    RandomStream r(23);
    double sum = 0.0;
    const int n = 50'000;
    for (int i = 0; i < n; ++i)
        sum += r.exponential(4.0);
    EXPECT_NEAR(sum / n, 4.0, 0.15);
}

TEST(RandomStream, ForkIsDeterministicAndIndependent)
{
    RandomStream a(31);
    RandomStream b(31);
    RandomStream fa = a.fork("child");
    RandomStream fb = b.fork("child");
    for (int i = 0; i < 10; ++i)
        EXPECT_EQ(fa.nextU64(), fb.nextU64());
}

// --- Work ------------------------------------------------------------

TEST(Work, Arithmetic)
{
    Work a{10.0, 20.0};
    Work b{1.0, 2.0};
    Work c = a + b;
    EXPECT_DOUBLE_EQ(c.flops, 11.0);
    EXPECT_DOUBLE_EQ(c.bytes, 22.0);
    Work d = b * 3.0;
    EXPECT_DOUBLE_EQ(d.flops, 3.0);
    EXPECT_DOUBLE_EQ(d.bytes, 6.0);
}

// --- EventQueue ------------------------------------------------------

TEST(EventQueue, FiresInTimeOrder)
{
    EventQueue q;
    std::vector<int> order;
    q.schedule(30, [&] { order.push_back(3); });
    q.schedule(10, [&] { order.push_back(1); });
    q.schedule(20, [&] { order.push_back(2); });
    while (!q.empty())
        q.popAndRun();
    EXPECT_EQ(order, (std::vector<int>{1, 2, 3}));
}

TEST(EventQueue, TiesAreFifo)
{
    EventQueue q;
    std::vector<int> order;
    for (int i = 0; i < 5; ++i)
        q.schedule(100, [&order, i] { order.push_back(i); });
    while (!q.empty())
        q.popAndRun();
    EXPECT_EQ(order, (std::vector<int>{0, 1, 2, 3, 4}));
}

TEST(EventQueue, ScheduleDuringRun)
{
    EventQueue q;
    std::vector<int> order;
    q.schedule(10, [&] {
        order.push_back(1);
        q.schedule(15, [&] { order.push_back(2); });
    });
    while (!q.empty())
        q.popAndRun();
    EXPECT_EQ(order, (std::vector<int>{1, 2}));
}

TEST(EventQueue, RandomizedOrderingProperty)
{
    RandomStream rng(99);
    EventQueue q;
    std::vector<TimeNs> fired;
    for (int i = 0; i < 500; ++i) {
        const TimeNs when = rng.uniformInt(0, 1000);
        q.schedule(when, [&fired, when] { fired.push_back(when); });
    }
    while (!q.empty())
        q.popAndRun();
    ASSERT_EQ(fired.size(), 500u);
    EXPECT_TRUE(std::is_sorted(fired.begin(), fired.end()));
}

TEST(EventQueue, BookkeepingStaysBoundedOverMillionEvents)
{
    // Bookkeeping must track the *pending* population, not the total
    // event count: a slot that is never recycled, or a heap that keeps
    // fired entries, grows with the lifetime of the queue.
    EventQueue q;
    constexpr int kEvents = 1'000'000;
    std::int64_t fired = 0;
    TimeNs t = 0;
    for (int i = 0; i < kEvents; ++i) {
        q.schedule(++t, [&] { ++fired; });
        if (i % 3 == 0)
            q.schedule(++t, [&] { ++fired; });
        while (q.size() > (i % 2 == 0 ? 1u : 0u))
            q.popAndRun();
    }
    while (!q.empty())
        q.popAndRun();
    EXPECT_EQ(q.size(), 0u);
    EXPECT_EQ(fired, kEvents + (kEvents + 2) / 3);
    // Peak concurrent pending population was 3, so the slot storage and
    // heap must be tiny after a million schedule/pop cycles.
    EXPECT_LE(q.slotCapacity(), 16u);
    EXPECT_LE(q.heapEntries(), 2 * q.size() + 64);
}

TEST(EventQueue, CallbackRunsInPlaceWhileScheduleGrowsSlotBlocks)
{
    // A callback runs in its slot. While it runs it schedules enough
    // events to force several new slot blocks, then reads and writes
    // its own captures: a slot freed or moved under a running
    // callback is a use-after-free the ASan+UBSan job reports.
    for (const EngineMode mode : {EngineMode::Fast, EngineMode::Reference}) {
        EventQueue q(mode);
        constexpr int kFanout = 3 * 64 + 7; // > 3 blocks of 64 slots
        std::vector<std::pair<TimeNs, int>> order;
        std::vector<int> tags;
        q.schedule(5, [&q, &order, &tags, base = 1000, stamp = 0]() mutable {
            for (int i = 0; i < kFanout; ++i) {
                // Later ones first in time; equal times keep FIFO order.
                const TimeNs when = 100 + (kFanout - i) / 2;
                q.schedule(when, [&order, when, i] {
                    order.emplace_back(when, i);
                });
                stamp += base + i;
            }
            tags.push_back(base);
            tags.push_back(stamp);
            base = -1;
            stamp = 0;
            tags.push_back(base);
            tags.push_back(stamp);
        });
        EXPECT_EQ(q.popAndRun(), 5);
        std::int64_t expected_stamp = 0;
        for (int i = 0; i < kFanout; ++i)
            expected_stamp += 1000 + i;
        ASSERT_EQ(tags.size(), 4u);
        EXPECT_EQ(tags[0], 1000);
        EXPECT_EQ(tags[1], expected_stamp);
        EXPECT_EQ(tags[2], -1);
        EXPECT_EQ(tags[3], 0);
        EXPECT_GE(q.slotCapacity(), static_cast<std::size_t>(kFanout));
        EXPECT_EQ(q.size(), static_cast<std::size_t>(kFanout));
        while (!q.empty())
            q.popAndRun();
        ASSERT_EQ(order.size(), static_cast<std::size_t>(kFanout));
        for (std::size_t k = 1; k < order.size(); ++k) {
            const auto &a = order[k - 1];
            const auto &b = order[k];
            // Time order; FIFO (schedule order, i.e. index) among ties.
            EXPECT_TRUE(a.first < b.first ||
                        (a.first == b.first && a.second < b.second))
                << engineModeName(mode) << " at " << k;
        }
    }
}

// schedule() builds the callable in its slot; an lvalue EventFn is
// refused at compile time, since it is move-only, and an rvalue one is
// moved in.
static_assert(EventCallable<EventFn>);
static_assert(!EventCallable<EventFn &>);
static_assert(!EventCallable<const EventFn &>);
static_assert(EventCallable<void (*)()>);
static_assert(!EventCallable<int>);
template <typename F>
concept SimulatorSchedules = requires(Simulator &sim, F &&fn) {
    sim.scheduleIn(1, std::forward<F>(fn));
};
static_assert(SimulatorSchedules<EventFn>);
static_assert(!SimulatorSchedules<EventFn &>);

TEST(EventQueue, RvalueEventFnIsMovedIntoItsSlot)
{
    EventQueue q;
    int fired = 0;
    EventFn fn([&fired] { ++fired; });
    q.schedule(1, std::move(fn));
    EXPECT_FALSE(fn);
    q.popAndRun();
    EXPECT_EQ(fired, 1);
}

// --- Simulator -------------------------------------------------------

TEST(Simulator, ClockAdvances)
{
    Simulator sim;
    TimeNs seen = -1;
    sim.scheduleIn(100, [&] { seen = sim.now(); });
    sim.run();
    EXPECT_EQ(seen, 100);
    EXPECT_EQ(sim.now(), 100);
}

TEST(Simulator, NowIsEventTimestampInsideCallback)
{
    // Regression test: the clock must be advanced before the event
    // body runs, or every callback observes the previous event's time.
    Simulator sim;
    std::vector<TimeNs> seen;
    sim.scheduleIn(10, [&] { seen.push_back(sim.now()); });
    sim.scheduleIn(25, [&] { seen.push_back(sim.now()); });
    sim.run();
    EXPECT_EQ(seen, (std::vector<TimeNs>{10, 25}));
}

TEST(Simulator, RelativeSchedulingChains)
{
    Simulator sim;
    TimeNs done = 0;
    sim.scheduleIn(10, [&] {
        sim.scheduleIn(5, [&] { done = sim.now(); });
    });
    sim.run();
    EXPECT_EQ(done, 15);
}

TEST(Simulator, NegativeDelayClampsToNow)
{
    Simulator sim;
    TimeNs seen = -1;
    sim.scheduleIn(10, [&] {
        sim.scheduleIn(-50, [&] { seen = sim.now(); });
    });
    sim.run();
    EXPECT_EQ(seen, 10);
}

TEST(Simulator, RunUntilStopsAtDeadline)
{
    Simulator sim;
    int fired = 0;
    for (TimeNs t : {10, 20, 30, 40})
        sim.scheduleAt(t, [&] { ++fired; });
    sim.runUntil(25);
    EXPECT_EQ(fired, 2);
    EXPECT_FALSE(sim.idle());
    sim.run();
    EXPECT_EQ(fired, 4);
}

TEST(Simulator, RunUntilConditionStops)
{
    Simulator sim;
    int fired = 0;
    for (TimeNs t : {10, 20, 30, 40})
        sim.scheduleAt(t, [&] { ++fired; });
    sim.runUntilCondition([&] { return fired >= 3; });
    EXPECT_EQ(fired, 3);
}

TEST(Simulator, EventCountTracks)
{
    Simulator sim;
    for (int i = 0; i < 7; ++i)
        sim.scheduleIn(i, [] {});
    sim.run();
    EXPECT_EQ(sim.eventsExecuted(), 7u);
}

// --- inline function ---------------------------------------------------

/** Trivially copyable: relocates by copying its bytes. */
struct Accumulate
{
    std::int64_t *out;
    std::int64_t a;
    std::int64_t b;
    double scale;
    void
    operator()() const
    {
        *out += static_cast<std::int64_t>(scale * static_cast<double>(a + b));
    }
};
static_assert(std::is_trivially_copyable_v<Accumulate>);
static_assert(sizeof(Accumulate) <= EventFn::kInlineSize);

/** Holds a shared_ptr: relocates by move-construct plus destroy. */
struct Holder
{
    std::shared_ptr<int> token;
    void operator()() const { ++*token; }
};
static_assert(!std::is_trivially_copyable_v<Holder>);

/** Too big for the inline buffer: lives on the heap. */
struct BigHolder
{
    std::shared_ptr<int> token;
    std::array<std::int64_t, 8> pad{};
    void operator()() const { ++*token; }
};
static_assert(sizeof(BigHolder) > EventFn::kInlineSize);

TEST(InlineFunction, TriviallyCopyableCaptureSurvivesAChainOfMoves)
{
    std::int64_t out = 0;
    EventFn first(Accumulate{&out, 3, 4, 2.0});
    EventFn second(std::move(first));
    EventFn third;
    third = std::move(second);
    std::vector<EventFn> fns;
    fns.push_back(std::move(third));
    for (int i = 0; i < 64; ++i) // reallocations move the elements
        fns.emplace_back(Accumulate{&out, 0, 0, 0.0});
    fns.front()();
    EXPECT_EQ(out, 14);
    EXPECT_FALSE(first);
    EXPECT_FALSE(second);
    EXPECT_FALSE(third);
}

template <typename Fn>
void
expectDestroyedExactlyOnce()
{
    auto token = std::make_shared<int>(0);
    {
        EventFn f(Fn{token});
        EXPECT_EQ(token.use_count(), 2);
        EventFn g(std::move(f));
        EventFn h;
        h = std::move(g);
        EXPECT_FALSE(f);
        EXPECT_FALSE(g);
        EXPECT_EQ(token.use_count(), 2);
        h();
        EXPECT_EQ(*token, 1);
        // Assigning over a live function destroys what it held.
        h = EventFn(Fn{token});
        EXPECT_EQ(token.use_count(), 2);
        h.reset();
        EXPECT_FALSE(h);
        EXPECT_EQ(token.use_count(), 1);
        h = EventFn(Fn{token});
    }
    EXPECT_EQ(token.use_count(), 1);
}

TEST(InlineFunction, SharedPtrCaptureIsDestroyedExactlyOnceInline)
{
    expectDestroyedExactlyOnce<Holder>();
}

TEST(InlineFunction, SharedPtrCaptureIsDestroyedExactlyOnceOnTheHeap)
{
    expectDestroyedExactlyOnce<BigHolder>();
}

} // namespace
} // namespace aitax::sim
