/**
 * @file
 * Allocation contract of the simulation fast path.
 *
 * Overrides global operator new to count heap allocations (the
 * technique of tests/test_trace_alloc.cc) and asserts the two perf
 * guarantees PR 7 documents in docs/PERFORMANCE.md:
 *
 *  1. The steady-state event loop is allocation-free: once the event
 *     queue's slot blocks have grown to capacity, scheduling and
 *     firing inline-capture events touches the heap zero times, in
 *     both engine modes.
 *
 *  2. A scenario run draws all of its run state from one arena block:
 *     after a warm-up run has established the high-water mark and
 *     reset() has coalesced, back-to-back identical runs keep exactly
 *     one block and never allocate another.
 *
 *  3. The CPU slice path is allocation-free: with tracing off, a lone
 *     task's slice expiries, each drawing a load-balance destination
 *     and migrating, touch the heap zero times.
 *
 *  4. Steady-state frames are allocation-free: building a frame's task
 *     program and running its offloads (GPU jobs, FastRPC calls to the
 *     DSP, CPU thread pools, background inference loops) touches the
 *     heap zero times, so a whole scenario allocates as often at 40
 *     runs as at 10. In app modes that includes the interference
 *     arrivals, whose daemon times live in the run's arena.
 *
 * This lives in its own test binary so the operator new override
 * cannot perturb other suites.
 */

#include <gtest/gtest.h>

#include <atomic>
#include <cstdlib>
#include <new>

#include "sim/arena.h"
#include "sim/simulator.h"
#include "soc/chipsets.h"
#include "soc/system.h"
#include "soc/task.h"
#include "verify/scenario.h"

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

namespace aitax::sim {
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

/** Self-chaining tick: the canonical steady-state event-loop shape. */
void
runChain(Simulator &sim, int events)
{
    int remaining = events;
    // The capture (two pointers) stays inside EventFn's inline buffer.
    struct Chain
    {
        Simulator *sim;
        int *remaining;
        void
        operator()() const
        {
            if (--*remaining > 0)
                sim->scheduleIn(100, Chain{sim, remaining});
        }
    };
    sim.scheduleIn(100, Chain{&sim, &remaining});
    sim.run();
    ASSERT_EQ(remaining, 0);
}

void
expectSteadyStateAllocationFree(EngineMode mode)
{
    Simulator sim(mode);
    // Warm-up pass: grows the event queue's slot arena to capacity.
    runChain(sim, kEvents);

    CountingScope scope;
    runChain(sim, kEvents);
    EXPECT_EQ(scope.count(), 0u)
        << "steady-state event loop allocated on the heap";
}

TEST(SimAlloc, FastEventLoopSteadyStateIsAllocationFree)
{
    expectSteadyStateAllocationFree(EngineMode::Fast);
}

TEST(SimAlloc, ReferenceEventLoopSteadyStateIsAllocationFree)
{
    expectSteadyStateAllocationFree(EngineMode::Reference);
}

} // namespace
} // namespace aitax::sim

namespace aitax::soc {
namespace {

TEST(SimAlloc, LoneTaskSliceExpiriesAreAllocationFree)
{
    SocConfig cfg = makeSnapdragon845();
    cfg.cluster.loadBalanceProb = 1.0; // every expiry draws and migrates
    SocSystem sys(cfg);
    sys.tracer().setEnabled(false);
    auto task = std::make_shared<Task>("lone");
    task->compute({3.64e9 * 120.0, 0.0}, WorkClass::Scalar); // ~2 min
    sys.scheduler().submit(task);

    // Warm-up: the event queue's slot arena reaches capacity.
    sys.simulator().runUntil(sim::msToNs(100.0));
    const std::int64_t before = sys.scheduler().migrations();

    std::size_t allocs = 0;
    {
        sim::CountingScope scope;
        sys.simulator().runUntil(sim::msToNs(100.0 + 45'000.0));
        allocs = scope.count();
    }
    EXPECT_GE(sys.scheduler().migrations() - before, 10'000);
    EXPECT_EQ(allocs, 0u) << "the CPU slice path allocated on the heap";
}

} // namespace
} // namespace aitax::soc

namespace aitax::verify {
namespace {

/** Heap allocations of one whole runScenario() of @p s at @p runs. */
std::size_t
scenarioAllocations(Scenario s, int runs)
{
    s.runs = runs;
    sim::CountingScope scope;
    runScenario(s);
    return scope.count();
}

TEST(SimAlloc, SteadyStateFramesAreAllocationFree)
{
    Scenario gpu;
    gpu.mode = app::HarnessMode::CliBenchmark;
    gpu.framework = app::FrameworkKind::TfliteGpu;
    gpu.dtype = tensor::DType::Float32;

    Scenario hexagon = gpu; // crosses FastRPC
    hexagon.framework = app::FrameworkKind::TfliteHexagon;
    hexagon.dtype = tensor::DType::UInt8;

    Scenario cpu = gpu; // 4-thread pool plus both kinds of loop
    cpu.framework = app::FrameworkKind::TfliteCpu;
    cpu.threads = 4;
    cpu.dspLoadProcesses = 1;
    cpu.cpuLoadProcesses = 1;

    // App mode chains interference arrivals over a horizon that grows
    // with the run count.
    Scenario app_nnapi = gpu;
    app_nnapi.mode = app::HarnessMode::AndroidApp;
    app_nnapi.framework = app::FrameworkKind::TfliteNnapi;
    app_nnapi.dtype = tensor::DType::UInt8;

    Scenario app_cpu = cpu;
    app_cpu.mode = app::HarnessMode::AndroidApp;

    for (const Scenario &s : {gpu, hexagon, cpu, app_nnapi, app_cpu}) {
        ASSERT_TRUE(scenarioValid(s)) << s.describe();
        // Warm run: process-wide caches, the arena's block and the
        // warm-up snapshot are in place afterwards.
        Scenario warm = s;
        warm.runs = 40;
        runScenario(warm);

        const std::size_t at40 = scenarioAllocations(s, 40);
        const std::size_t at10 = scenarioAllocations(s, 10);
        EXPECT_EQ(at40, at10)
            << s.describe() << ": 30 more frames allocated "
            << static_cast<long long>(at40) - static_cast<long long>(at10)
            << " more times";
    }
}

TEST(SimAlloc, ScenarioRunsReuseOneArenaBlock)
{
    Scenario s;
    s.mode = app::HarnessMode::CliBenchmark;
    s.runs = 4;
    ASSERT_TRUE(scenarioValid(s));

    // Warm-up runs: establish the high-water mark; the trailing reset
    // coalesces any spill chain into a single right-sized block.
    runScenario(s);
    runScenario(s);

    sim::Arena &arena = scenarioArena();
    ASSERT_EQ(arena.blockCount(), 1u);
    const std::uint64_t primed = arena.blockAllocs();
    const std::size_t high_water = arena.highWaterBytes();

    for (int i = 0; i < 3; ++i)
        runScenario(s);

    EXPECT_EQ(arena.blockCount(), 1u)
        << "steady-state run spilled past one arena block";
    EXPECT_EQ(arena.blockAllocs(), primed)
        << "steady-state run allocated a fresh arena block";
    EXPECT_EQ(arena.highWaterBytes(), high_water)
        << "identical runs must not grow the high-water mark";
}

} // namespace
} // namespace aitax::verify
