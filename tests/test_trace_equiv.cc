/**
 * @file
 * Byte-format and analytics checks for the interned/columnar tracer.
 *
 * The Chrome-trace writer must reproduce the recorded fixture
 * tests/trace_fixtures/chrome_trace.json byte for byte. The fixture is
 * chromeTraceString() of the first 500 makeScenario() ops recorded
 * through the id API, so it pins the format: exact-microsecond
 * timestamps, escapes, thread ids in track-name order. Closed-form
 * utilization must agree with a brute-force per-bucket overlap scan.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <fstream>
#include <iterator>
#include <string>
#include <vector>

#include "trace/chrome_trace.h"
#include "trace/tracer.h"

#ifndef AITAX_TRACE_FIXTURE
#error "build must define AITAX_TRACE_FIXTURE"
#endif

namespace aitax::trace {
namespace {

/** Tiny deterministic LCG so the scenario covers awkward timestamps. */
struct Lcg
{
    std::uint64_t s = 0x9E3779B97F4A7C15ull;
    std::uint64_t
    next()
    {
        s = s * 6364136223846793005ull + 1442695040888963407ull;
        return s >> 16;
    }
};

struct Op
{
    int track;
    int label;
    sim::TimeNs begin;
    sim::TimeNs end;
    int kind;       // -1 = no event
    double counter; // <= 0 = no counter sample
};

std::vector<Op>
makeScenario()
{
    const int kTracks = 6, kLabels = 12, kKinds = 2;
    Lcg rng;
    std::vector<Op> ops;
    sim::TimeNs now = 0;
    for (int i = 0; i < 4000; ++i) {
        Op op;
        op.track = static_cast<int>(rng.next() % kTracks);
        op.label = static_cast<int>(rng.next() % kLabels);
        // Sub-microsecond offsets exercise the fractional digits.
        now += static_cast<sim::TimeNs>(rng.next() % 9973);
        op.begin = now;
        op.end = now + 1 + static_cast<sim::TimeNs>(rng.next() % 74321);
        op.kind = (i % 7 == 0)
                      ? static_cast<int>(rng.next() % kKinds)
                      : -1;
        op.counter = (i % 5 == 0)
                         ? static_cast<double>(rng.next() % 100000)
                         : 0.0;
        ops.push_back(op);
    }
    return ops;
}

std::string
trackName(int i)
{
    return "core" + std::to_string(i);
}

std::string
labelName(int i)
{
    // Mix in escape-needing labels.
    if (i % 4 == 0)
        return "job\"q\\" + std::to_string(i);
    return "job_" + std::to_string(i);
}

const char *
kindName(int i)
{
    return i == 0 ? "context_switch" : "migration";
}

void
recordViaIdApi(Tracer &t, const std::vector<Op> &ops)
{
    std::vector<TrackId> tracks;
    for (int i = 0; i < 6; ++i)
        tracks.push_back(t.internTrack(trackName(i)));
    std::vector<LabelId> labels;
    for (int i = 0; i < 12; ++i)
        labels.push_back(t.internLabel(labelName(i)));
    const EventKindId kinds[2] = {t.internEventKind(kindName(0)),
                                  t.internEventKind(kindName(1))};
    const CounterId axi = t.internCounter("axi_bytes");

    for (const Op &op : ops) {
        t.recordInterval(tracks[static_cast<std::size_t>(op.track)],
                         labels[static_cast<std::size_t>(op.label)],
                         op.begin, op.end);
        if (op.kind >= 0)
            t.recordEvent(kinds[op.kind],
                          labels[static_cast<std::size_t>(op.label)],
                          op.begin);
        if (op.counter > 0)
            t.recordCounter(axi, op.begin, op.counter);
    }
}

TEST(TraceEquiv, StreamingWriterMatchesFixtureBytes)
{
    auto ops = makeScenario();
    ops.resize(500);
    Tracer t;
    recordViaIdApi(t, ops);
    const std::string got = chromeTraceString(t);

    std::ifstream in(AITAX_TRACE_FIXTURE, std::ios::binary);
    ASSERT_TRUE(in) << "missing fixture " << AITAX_TRACE_FIXTURE;
    const std::string want((std::istreambuf_iterator<char>(in)),
                           std::istreambuf_iterator<char>());
    if (got != want) {
        // Leave the new bytes next to the test for review; after an
        // intended format change, copy them over the fixture.
        std::ofstream("chrome_trace.actual.json", std::ios::binary)
            << got;
    }
    EXPECT_EQ(got, want) << "Chrome-trace bytes drifted from the "
                            "fixture; see chrome_trace.actual.json";
}

TEST(TraceEquiv, UtilizationMatchesBruteForceOverlap)
{
    // The closed-form bucket coverage must agree with the old
    // per-bucket overlap loop to within FP noise.
    const auto ops = makeScenario();
    Tracer t;
    recordViaIdApi(t, ops);

    sim::TimeNs t1 = 0;
    for (const Op &op : ops)
        t1 = std::max(t1, op.end);

    const std::size_t buckets = 53;
    const double bucket_ns =
        static_cast<double>(t1) / static_cast<double>(buckets);
    for (int i = 0; i < 6; ++i) {
        const std::string track = trackName(i);
        const Tracer::TrackStore &ts = t.track(t.findTrack(track));
        std::vector<double> expect(buckets, 0.0);
        for (std::size_t j = 0; j < ts.size(); ++j) {
            for (std::size_t k = 0; k < buckets; ++k) {
                const double b0 =
                    static_cast<double>(k) * bucket_ns;
                const double b1 = b0 + bucket_ns;
                const double lo =
                    std::max(b0, static_cast<double>(ts.begins[j]));
                const double hi =
                    std::min(b1, static_cast<double>(ts.ends[j]));
                if (hi > lo)
                    expect[k] += (hi - lo) / bucket_ns;
            }
        }
        const auto got = t.utilization(track, 0, t1, buckets);
        for (std::size_t k = 0; k < buckets; ++k)
            EXPECT_NEAR(got[k], std::min(expect[k], 1.0), 1e-6)
                << track << " bucket " << k;
    }
}

} // namespace
} // namespace aitax::trace
