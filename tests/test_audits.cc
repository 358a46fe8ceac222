/**
 * @file
 * Negative tests for the runtime determinism auditors (src/sim/audit.h):
 * prove the EventQueue tie auditor and the Simulator/Tracer ownership
 * sentinels actually fire, and that clean runs stay silent. A
 * recording handler replaces the default abort() handler for the
 * duration of each test.
 */

#include <string>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "sim/audit.h"
#include "sim/engine_mode.h"
#include "sim/event_queue.h"
#include "sim/simulator.h"
#include "trace/tracer.h"

namespace {

using aitax::sim::EngineMode;
using aitax::sim::EventQueue;
using aitax::sim::OwnershipSentinel;
using aitax::sim::setAuditHandler;
using aitax::sim::Simulator;
using aitax::trace::Tracer;

/** Violations recorded by the test handler. The handler is a plain
 *  function pointer, so the store is file-static; tests here never run
 *  concurrently with each other. */
std::vector<std::string> g_violations;

void
recordViolation(const char *what, const char *detail)
{
    g_violations.push_back(std::string(what) + ": " + detail);
}

/** Installs the recording handler for one test, restores on exit. */
class AuditRecorder
{
  public:
    AuditRecorder()
    {
        g_violations.clear();
        prev_ = setAuditHandler(&recordViolation);
    }
    ~AuditRecorder() { setAuditHandler(prev_); }
    AuditRecorder(const AuditRecorder &) = delete;
    AuditRecorder &operator=(const AuditRecorder &) = delete;

  private:
    aitax::sim::AuditHandler prev_;
};

// --- tie auditor (always compiled in) ----------------------------------

TEST(TieAuditor, CleanFifoTiesAreSilent)
{
    AuditRecorder rec;
    EventQueue q;
    int order = 0;
    int first = -1;
    int second = -1;
    q.schedule(5, [&] { first = order++; });
    q.schedule(5, [&] { second = order++; });
    q.popAndRun();
    q.popAndRun();
    EXPECT_EQ(first, 0);
    EXPECT_EQ(second, 1);
    EXPECT_TRUE(g_violations.empty());
}

TEST(TieAuditor, FiresOnFabricatedSeqCollision)
{
    AuditRecorder rec;
    EventQueue q;
    q.schedule(5, [] {});
    // Force the second event to reuse seq 0: the tie at when=5 is now
    // genuinely unordered, which is exactly what the auditor polices.
    q.debugSetNextSeq(0);
    q.schedule(5, [] {});
    q.popAndRun();
    EXPECT_TRUE(g_violations.empty());
    q.popAndRun();
    ASSERT_EQ(g_violations.size(), 1U);
    EXPECT_NE(g_violations[0].find("tie"), std::string::npos);
}

TEST(TieAuditor, FiresOnBackwardsSeqAcrossTimestamps)
{
    AuditRecorder rec;
    EventQueue q;
    q.schedule(5, [] {});
    q.schedule(5, [] {});
    q.popAndRun(); // (5, seq 0)
    // Replay an earlier seq at the same timestamp.
    q.debugSetNextSeq(0);
    q.schedule(5, [] {});
    q.popAndRun(); // (5, seq 0) again -> strictly-increasing violated
    ASSERT_FALSE(g_violations.empty());
}

TEST(TieAuditor, FiresOnSeqCollisionScheduledDuringDispatch)
{
    // Fast engine: an event scheduled inside a callback goes straight
    // into the front cache while the popped event's callback is still
    // running. The auditor runs at pop time — a forged collision
    // scheduled mid-dispatch must not slip past it.
    AuditRecorder rec;
    EventQueue q(EngineMode::Fast);
    q.schedule(5, [&q] {
        q.debugSetNextSeq(0);
        q.schedule(5, [] {}); // mid-dispatch (5, seq 0) duplicate
    });
    q.popAndRun(); // (5, seq 0), legitimate
    EXPECT_TRUE(g_violations.empty());
    q.popAndRun(); // duplicate (5, seq 0) -> must fire
    ASSERT_EQ(g_violations.size(), 1U);
    EXPECT_NE(g_violations[0].find("tie"), std::string::npos);
}

TEST(TieAuditor, TracksStateAcrossSkipAheadTimeJumps)
{
    // Fast engine: with a near-empty queue, pops are served from the
    // one-slot front cache and the clock jumps straight between
    // far-apart events without touching the heap. The audit watermark
    // must ride along — a later event forged into the past has to
    // fire even though no heap ordering was ever consulted.
    AuditRecorder rec;
    EventQueue q(EngineMode::Fast);
    q.schedule(10, [] {});
    q.schedule(1000000000, [] {}); // ~1s skip-ahead jump
    q.popAndRun();
    q.popAndRun();
    EXPECT_TRUE(g_violations.empty());
    EXPECT_GT(q.frontCacheHits(), 0U);
    q.debugSetNextSeq(0);
    q.schedule(10, [] {}); // in the past relative to the last pop
    q.popAndRun();
    ASSERT_EQ(g_violations.size(), 1U);
    EXPECT_NE(g_violations[0].find("tie"), std::string::npos);
}

// --- OwnershipSentinel primitive ---------------------------------------

TEST(Ownership, BindsLazilyAndAcceptsOwnerTouches)
{
    AuditRecorder rec;
    OwnershipSentinel s;
    EXPECT_FALSE(s.bound());
    s.check("Widget");
    EXPECT_TRUE(s.bound());
    s.check("Widget");
    s.check("Widget");
    EXPECT_TRUE(g_violations.empty());
}

TEST(Ownership, FiresOnForeignThreadTouch)
{
    AuditRecorder rec;
    OwnershipSentinel s;
    s.check("Widget"); // main thread claims ownership
    std::thread intruder([&] { s.check("Widget"); });
    intruder.join();
    ASSERT_EQ(g_violations.size(), 1U);
    EXPECT_NE(g_violations[0].find("Widget"), std::string::npos);
    EXPECT_NE(g_violations[0].find("does not own"), std::string::npos);
}

TEST(Ownership, ReleaseAllowsDeliberateHandoff)
{
    AuditRecorder rec;
    OwnershipSentinel s;
    s.check("Widget");
    s.release();
    EXPECT_FALSE(s.bound());
    std::thread successor([&] {
        s.check("Widget"); // rebinds to this thread
        s.check("Widget");
    });
    successor.join();
    EXPECT_TRUE(g_violations.empty());
}

TEST(Ownership, FirstTouchFromWorkerThreadBindsWorker)
{
    AuditRecorder rec;
    OwnershipSentinel s;
    // Built on main, first touched by a worker: worker becomes owner
    // (the SweepRunner pattern).
    std::thread worker([&] { s.check("Widget"); });
    worker.join();
    EXPECT_TRUE(s.bound());
    s.check("Widget"); // main is now the intruder
    ASSERT_EQ(g_violations.size(), 1U);
}

// --- Simulator / Tracer integration (needs AITAX_RUNTIME_AUDITS) ------

TEST(OwnershipIntegration, SimulatorScheduleFromForeignThreadFires)
{
#if AITAX_RUNTIME_AUDITS
    AuditRecorder rec;
    Simulator sim;
    sim.scheduleIn(10, [] {}); // main claims the simulator
    std::thread intruder([&] { sim.scheduleAt(20, [] {}); });
    intruder.join();
    ASSERT_FALSE(g_violations.empty());
    EXPECT_NE(g_violations[0].find("Simulator"), std::string::npos);
#else
    GTEST_SKIP() << "built without AITAX_RUNTIME_AUDITS";
#endif
}

TEST(OwnershipIntegration, SimulatorSingleThreadRunIsSilent)
{
#if AITAX_RUNTIME_AUDITS
    AuditRecorder rec;
    Simulator sim;
    int fired = 0;
    sim.scheduleIn(10, [&] { ++fired; });
    sim.scheduleIn(20, [&] { ++fired; });
    sim.run();
    EXPECT_EQ(fired, 2);
    EXPECT_TRUE(g_violations.empty());
#else
    GTEST_SKIP() << "built without AITAX_RUNTIME_AUDITS";
#endif
}

TEST(OwnershipIntegration, SimulatorReleaseSupportsHandoff)
{
#if AITAX_RUNTIME_AUDITS
    AuditRecorder rec;
    Simulator sim;
    sim.scheduleIn(10, [] {});
    sim.auditReleaseOwner();
    std::thread worker([&] {
        sim.scheduleIn(20, [] {});
        sim.run();
    });
    worker.join();
    EXPECT_TRUE(g_violations.empty());
#else
    GTEST_SKIP() << "built without AITAX_RUNTIME_AUDITS";
#endif
}

TEST(OwnershipIntegration, TracerInternFromForeignThreadFires)
{
#if AITAX_RUNTIME_AUDITS
    AuditRecorder rec;
    Tracer tracer;
    (void)tracer.internTrack("npu"); // main claims the tracer
    std::thread intruder([&] { (void)tracer.internTrack("dsp"); });
    intruder.join();
    ASSERT_FALSE(g_violations.empty());
    EXPECT_NE(g_violations[0].find("Tracer"), std::string::npos);
#else
    GTEST_SKIP() << "built without AITAX_RUNTIME_AUDITS";
#endif
}

TEST(OwnershipIntegration, TracerSingleThreadUseIsSilent)
{
#if AITAX_RUNTIME_AUDITS
    AuditRecorder rec;
    Tracer tracer;
    const auto track = tracer.internTrack("npu");
    const auto label = tracer.internLabel("conv");
    tracer.recordInterval(track, label, 0, 100);
    EXPECT_TRUE(g_violations.empty());
#else
    GTEST_SKIP() << "built without AITAX_RUNTIME_AUDITS";
#endif
}

} // namespace
