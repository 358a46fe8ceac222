/**
 * @file
 * Unit tests for the execution tracer and timeline renderer.
 */

#include <gtest/gtest.h>

#include <charconv>
#include <cstdint>
#include <sstream>
#include <string>
#include <string_view>
#include <vector>

#include "sim/random.h"
#include "trace/chrome_trace.h"
#include "trace/render.h"
#include "trace/tracer.h"

namespace aitax::trace {
namespace {

// Test-local shorthands: intern by name, then take the id path.

void
interval(Tracer &t, std::string_view track, std::string_view label,
         sim::TimeNs begin, sim::TimeNs end)
{
    t.recordInterval(t.internTrack(track), t.internLabel(label), begin,
                     end);
}

void
event(Tracer &t, std::string_view kind, std::string_view detail,
      sim::TimeNs when)
{
    t.recordEvent(t.internEventKind(kind), t.internLabel(detail), when);
}

void
sample(Tracer &t, std::string_view counter, sim::TimeNs when,
       double value)
{
    t.recordCounter(t.internCounter(counter), when, value);
}

/** Intervals on @p track (0 if never interned). */
std::size_t
intervalsOn(const Tracer &t, std::string_view track)
{
    const TrackId id = t.findTrack(track);
    return id.valid() ? t.track(id).size() : 0;
}

/** Samples of @p counter (0 if never interned). */
std::size_t
samplesOf(const Tracer &t, std::string_view counter)
{
    const CounterId id = t.findCounter(counter);
    return id.valid() ? t.counterStore(id).size() : 0;
}

/** Names of the tracks holding intervals, in reader (sorted) order. */
std::vector<std::string>
nonEmptyTrackNames(const Tracer &t)
{
    std::vector<std::string> names;
    for (TrackId id : t.sortedNonEmptyTracks())
        names.push_back(t.trackName(id));
    return names;
}

TEST(Tracer, RecordsIntervals)
{
    Tracer t;
    interval(t, "cpu0", "task", 100, 200);
    interval(t, "cpu0", "task2", 300, 400);
    interval(t, "cpu1", "other", 0, 50);
    EXPECT_EQ(intervalsOn(t, "cpu0"), 2u);
    EXPECT_EQ(intervalsOn(t, "cpu1"), 1u);
    EXPECT_EQ(intervalsOn(t, "gpu"), 0u);
}

TEST(Tracer, DropsEmptyIntervals)
{
    Tracer t;
    interval(t, "cpu0", "x", 100, 100);
    interval(t, "cpu0", "y", 100, 90);
    EXPECT_EQ(intervalsOn(t, "cpu0"), 0u);
}

TEST(Tracer, DisabledCollectsNothing)
{
    Tracer t;
    t.setEnabled(false);
    interval(t, "cpu0", "x", 0, 10);
    event(t, "migration", "x", 5);
    sample(t, "axi_bytes", 5, 100.0);
    EXPECT_EQ(intervalsOn(t, "cpu0"), 0u);
    EXPECT_EQ(t.eventCount(), 0u);
    EXPECT_EQ(samplesOf(t, "axi_bytes"), 0u);
}

TEST(Tracer, TrackNamesSorted)
{
    Tracer t;
    interval(t, "zeta", "x", 0, 1);
    interval(t, "alpha", "x", 0, 1);
    const auto names = nonEmptyTrackNames(t);
    ASSERT_EQ(names.size(), 2u);
    EXPECT_EQ(names[0], "alpha");
    EXPECT_EQ(names[1], "zeta");
}

TEST(Tracer, CountEvents)
{
    Tracer t;
    event(t, "migration", "a", 1);
    event(t, "migration", "b", 2);
    event(t, "context_switch", "c", 3);
    EXPECT_EQ(t.countEvents("migration"), 2);
    EXPECT_EQ(t.countEvents("context_switch"), 1);
    EXPECT_EQ(t.countEvents("nothing"), 0);
}

TEST(Tracer, UtilizationFullyBusy)
{
    Tracer t;
    interval(t, "cpu0", "x", 0, 1000);
    const auto u = t.utilization("cpu0", 0, 1000, 4);
    ASSERT_EQ(u.size(), 4u);
    for (double v : u)
        EXPECT_NEAR(v, 1.0, 1e-9);
}

TEST(Tracer, UtilizationHalfBusy)
{
    Tracer t;
    interval(t, "cpu0", "x", 0, 500);
    const auto u = t.utilization("cpu0", 0, 1000, 2);
    EXPECT_NEAR(u[0], 1.0, 1e-9);
    EXPECT_NEAR(u[1], 0.0, 1e-9);
}

TEST(Tracer, UtilizationPartialBucketOverlap)
{
    Tracer t;
    interval(t, "cpu0", "x", 250, 750);
    const auto u = t.utilization("cpu0", 0, 1000, 2);
    EXPECT_NEAR(u[0], 0.5, 1e-9);
    EXPECT_NEAR(u[1], 0.5, 1e-9);
}

TEST(Tracer, UtilizationClampsOverlappingIntervals)
{
    Tracer t;
    interval(t, "cpu0", "a", 0, 1000);
    interval(t, "cpu0", "b", 0, 1000);
    const auto u = t.utilization("cpu0", 0, 1000, 2);
    for (double v : u)
        EXPECT_LE(v, 1.0);
}

TEST(Tracer, CounterRateBuckets)
{
    Tracer t;
    sample(t, "axi_bytes", 100, 10.0);
    sample(t, "axi_bytes", 150, 5.0);
    sample(t, "axi_bytes", 900, 7.0);
    const auto r = t.counterRate("axi_bytes", 0, 1000, 2);
    EXPECT_DOUBLE_EQ(r[0], 15.0);
    EXPECT_DOUBLE_EQ(r[1], 7.0);
}

TEST(Tracer, CounterIgnoresOutOfWindow)
{
    Tracer t;
    sample(t, "axi_bytes", 2000, 99.0);
    const auto r = t.counterRate("axi_bytes", 0, 1000, 2);
    EXPECT_DOUBLE_EQ(r[0] + r[1], 0.0);
}

TEST(Tracer, ClearResets)
{
    Tracer t;
    interval(t, "cpu0", "x", 0, 10);
    event(t, "migration", "x", 1);
    t.clear();
    EXPECT_EQ(intervalsOn(t, "cpu0"), 0u);
    EXPECT_EQ(t.eventCount(), 0u);
}

TEST(Render, TimelineShowsTracksAndCounts)
{
    Tracer t;
    interval(t, "cpu0", "x", 0, 500'000);
    interval(t, "cDSP", "job", 250'000, 750'000);
    event(t, "context_switch", "x", 100);
    event(t, "migration", "x", 200);
    std::ostringstream os;
    renderTimeline(os, t, 0, 1'000'000, 10);
    const std::string out = os.str();
    EXPECT_NE(out.find("cpu0"), std::string::npos);
    EXPECT_NE(out.find("cDSP"), std::string::npos);
    EXPECT_NE(out.find("context switches: 1"), std::string::npos);
    EXPECT_NE(out.find("migrations: 1"), std::string::npos);
}

TEST(Render, TimelineShowsCounterRow)
{
    Tracer t;
    interval(t, "cpu0", "x", 0, 100);
    sample(t, "axi_bytes", 50, 1e6);
    std::ostringstream os;
    renderTimeline(os, t, 0, 100, 4);
    EXPECT_NE(os.str().find("axi_bytes"), std::string::npos);
}

TEST(ChromeTrace, EmitsValidEventArray)
{
    Tracer t;
    interval(t, "cpu0", "taskA", 1000, 3000);
    event(t, "migration", "taskA", 1500);
    std::ostringstream os;
    writeChromeTrace(os, t);
    const std::string out = os.str();
    EXPECT_EQ(out.front(), '[');
    EXPECT_EQ(out[out.size() - 2], ']');
    EXPECT_NE(out.find("\"name\":\"taskA\""), std::string::npos);
    EXPECT_NE(out.find("\"ph\":\"X\""), std::string::npos);
    EXPECT_NE(out.find("\"dur\":2"), std::string::npos); // 2 us
    EXPECT_NE(out.find("\"migration\""), std::string::npos);
    EXPECT_NE(out.find("thread_name"), std::string::npos);
}

TEST(ChromeTrace, EscapesSpecialCharacters)
{
    Tracer t;
    interval(t, "cpu0", "with\"quote", 0, 10);
    std::ostringstream os;
    writeChromeTrace(os, t);
    EXPECT_NE(os.str().find("with\\\"quote"), std::string::npos);
}

TEST(ChromeTrace, EmptyTracerProducesEmptyArray)
{
    Tracer t;
    std::ostringstream os;
    writeChromeTrace(os, t);
    EXPECT_NE(os.str().find("["), std::string::npos);
    EXPECT_NE(os.str().find("]"), std::string::npos);
}

TEST(ChromeTrace, EscapesControlCharacters)
{
    // Raw \t, \r and other sub-0x20 bytes in a label used to pass
    // through unescaped, emitting invalid JSON.
    Tracer t;
    interval(t, "cpu0", "tab\there", 0, 10);
    interval(t, "cpu0", "cr\rlf\n", 20, 30);
    interval(t, "cpu0", std::string("ctl\x01\x1f"), 40, 50);
    const std::string out = chromeTraceString(t);
    EXPECT_NE(out.find("tab\\there"), std::string::npos);
    EXPECT_NE(out.find("cr\\rlf\\n"), std::string::npos);
    EXPECT_NE(out.find("ctl\\u0001\\u001f"), std::string::npos);
    // No raw control characters survive anywhere in the document.
    for (char c : out)
        EXPECT_FALSE(static_cast<unsigned char>(c) < 0x20 &&
                     c != '\n')
            << "raw control char in output: " << static_cast<int>(c);
}

TEST(ChromeTrace, StringAndStreamWritersAgree)
{
    Tracer t;
    interval(t, "cpu0", "x", 1234, 5678901);
    event(t, "migration", "x", 42);
    std::ostringstream os;
    writeChromeTrace(os, t);
    EXPECT_EQ(os.str(), chromeTraceString(t));
}

/**
 * Read back one printed "ts"/"dur" number: an optional '-', the
 * integer microseconds without a leading zero, then optionally a point
 * and one to three fraction digits, the last of them not 0. Sets the
 * sign and the magnitude in ns; false on any other form, such as an
 * exponent, a trailing fractional zero or a value past 2^64 - 1 ns.
 */
bool
parseExactUs(std::string_view text, bool &negative, std::uint64_t &ns)
{
    negative = !text.empty() && text.front() == '-';
    if (negative)
        text.remove_prefix(1);
    const std::size_t point = text.find('.');
    const std::string_view whole = text.substr(0, point);
    std::uint64_t us = 0;
    const auto r =
        std::from_chars(whole.data(), whole.data() + whole.size(), us);
    if (r.ec != std::errc() || r.ptr != whole.data() + whole.size() ||
        (whole.size() > 1 && whole.front() == '0'))
        return false;
    std::uint64_t frac = 0;
    if (point != std::string_view::npos) {
        const std::string_view digits = text.substr(point + 1);
        if (digits.empty() || digits.size() > 3 || digits.back() == '0')
            return false;
        for (std::size_t k = 0; k < 3; ++k) {
            const char d = k < digits.size() ? digits[k] : '0';
            if (d < '0' || d > '9')
                return false;
            frac = frac * 10 + static_cast<std::uint64_t>(d - '0');
        }
    }
    if (us > (UINT64_MAX - frac) / 1000)
        return false;
    ns = us * 1000 + frac;
    return true;
}

/** The number after @p key at or past @p pos; pos moves past it. */
std::string_view
numberAfter(const std::string &out, std::string_view key,
            std::size_t &pos)
{
    pos = out.find(key, pos);
    if (pos == std::string::npos)
        return {};
    pos += key.size();
    const std::size_t end = out.find_first_of(",}", pos);
    return std::string_view(out).substr(pos, end - pos);
}

TEST(ChromeTrace, TimestampsAreExactMicroseconds)
{
    // Every "ts" and "dur" must read back as the recorded nanosecond
    // count exactly, over the whole int64 range: 0 and the digit
    // boundaries of the fraction, every power of ten, INT64_MAX, and
    // negative begins down to INT64_MIN.
    std::vector<sim::TimeNs> ns = {0, 1, 999, 1000, 1001, 1010, 1100,
                                   INT64_MAX};
    sim::TimeNs power = 1;
    for (int k = 1; k <= 18; ++k)
        ns.push_back(power *= 10);
    sim::RandomStream rng(2021, "chrome-trace-numbers");
    for (int i = 0; i < 20000; ++i) {
        // Every magnitude from 1 ns to INT64_MAX.
        sim::TimeNs scale = 1;
        for (std::int64_t k = rng.uniformInt(0, 18); k > 0; --k)
            scale *= 10;
        const sim::TimeNs hi =
            scale <= INT64_MAX / 10 ? 10 * scale - 1 : INT64_MAX;
        ns.push_back(rng.uniformInt(scale, hi));
    }

    // Each value begins a negative interval that lasts the next value,
    // and a positive one cut at INT64_MAX (INT64_MAX itself, which
    // cannot begin an interval, is an instant below), so every value
    // prints as a "ts" of both signs and, from the second on, as a
    // "dur". Each case is its own tracer, so each sizes its output from
    // its own widest number against the serializer's always-on assert;
    // instants at `when` and at the begin give a negative case three
    // signed numbers, more than the bound's two bytes of separator
    // slack.
    struct Case
    {
        sim::TimeNs begin, end, when;
    };
    std::vector<Case> cases = {{INT64_MIN, INT64_MAX, INT64_MIN},
                               {INT64_MIN, INT64_MIN + 1, INT64_MAX},
                               {INT64_MAX - 1, INT64_MAX, 0}};
    for (std::size_t i = 0; i + 1 < ns.size(); ++i) {
        const sim::TimeNs dur = ns[i + 1];
        cases.push_back({-ns[i], -ns[i] + dur, -ns[i]});
        if (ns[i] < INT64_MAX)
            cases.push_back({ns[i],
                             ns[i] <= INT64_MAX - dur ? ns[i] + dur
                                                      : INT64_MAX,
                             ns[i]});
    }

    for (const Case &c : cases) {
        Tracer t;
        interval(t, "cpu0", "x", c.begin, c.end);
        event(t, "migration", "x", c.when);
        event(t, "migration", "x", c.begin);
        const std::string out = chromeTraceString(t);
        const auto expect = [&](std::string_view text, bool negative,
                                std::uint64_t magnitude) {
            bool neg = false;
            std::uint64_t got = 0;
            EXPECT_TRUE(parseExactUs(text, neg, got) &&
                        neg == negative && got == magnitude)
                << "printed " << text << " for " << (negative ? "-" : "")
                << magnitude << " ns in\n"
                << out;
        };
        const auto stamp = [&](std::string_view text, sim::TimeNs v) {
            const auto u = static_cast<std::uint64_t>(v);
            expect(text, v < 0, v < 0 ? 0 - u : u);
        };
        std::size_t pos = 0;
        stamp(numberAfter(out, R"("ts":)", pos), c.begin);
        expect(numberAfter(out, R"("dur":)", pos), false,
               static_cast<std::uint64_t>(c.end) -
                   static_cast<std::uint64_t>(c.begin));
        stamp(numberAfter(out, R"("ts":)", pos), c.when);
        stamp(numberAfter(out, R"("ts":)", pos), c.begin);
    }
}

TEST(TracerIntern, SameNameSameId)
{
    Tracer t;
    const TrackId a = t.internTrack("cpu0");
    const TrackId b = t.internTrack("cpu0");
    EXPECT_EQ(a, b);
    EXPECT_NE(t.internTrack("cpu1"), a);
    EXPECT_EQ(t.internLabel("x"), t.internLabel("x"));
    EXPECT_EQ(t.internEventKind("migration"),
              t.internEventKind("migration"));
    EXPECT_EQ(t.internCounter("axi_bytes"),
              t.internCounter("axi_bytes"));
}

TEST(TracerIntern, FindDoesNotCreate)
{
    Tracer t;
    EXPECT_FALSE(t.findTrack("cpu0").valid());
    const TrackId id = t.internTrack("cpu0");
    EXPECT_TRUE(t.findTrack("cpu0").valid());
    EXPECT_EQ(t.findTrack("cpu0"), id);
    EXPECT_FALSE(t.findCounter("axi_bytes").valid());
    EXPECT_FALSE(t.findEventKind("migration").valid());
}

TEST(TracerIntern, EmptyTracksHiddenFromReaders)
{
    // Components intern their tracks at construction; a track that
    // never records must not appear in sortedNonEmptyTracks() or the
    // chrome trace (goldens predate construction-time interning).
    Tracer t;
    t.internTrack("idle-core");
    interval(t, "cpu0", "x", 0, 10);
    const auto names = nonEmptyTrackNames(t);
    ASSERT_EQ(names.size(), 1u);
    EXPECT_EQ(names[0], "cpu0");
    EXPECT_EQ(chromeTraceString(t).find("idle-core"),
              std::string::npos);
    EXPECT_TRUE(t.sortedNonEmptyTracks().size() == 1);
}

TEST(TracerIntern, IdOverloadsRecord)
{
    Tracer t;
    const TrackId track = t.internTrack("cpu0");
    const LabelId label = t.internLabel("job");
    const EventKindId kind = t.internEventKind("migration");
    const CounterId ctr = t.internCounter("axi_bytes");

    t.recordInterval(track, label, 100, 200);
    t.recordEvent(kind, label, 150);
    t.recordCounter(ctr, 150, 64.0);

    const Tracer::TrackStore &ivs = t.track(track);
    ASSERT_EQ(ivs.size(), 1u);
    EXPECT_EQ(t.labelName(ivs.labels[0]), "job");
    EXPECT_EQ(t.countEvents("migration"), 1);
    EXPECT_EQ(samplesOf(t, "axi_bytes"), 1u);
}

TEST(TracerIntern, IdOverloadsHonorDisabledAndEmpty)
{
    Tracer t;
    const TrackId track = t.internTrack("cpu0");
    const LabelId label = t.internLabel("job");
    t.recordInterval(track, label, 100, 100); // empty -> dropped
    t.setEnabled(false);
    t.recordInterval(track, label, 100, 200);
    t.recordEvent(t.internEventKind("m"), label, 5);
    t.recordCounter(t.internCounter("c"), 5, 1.0);
    EXPECT_EQ(t.intervalCount(), 0u);
    EXPECT_EQ(t.eventCount(), 0u);
    EXPECT_EQ(t.counterSampleCount(), 0u);
}

TEST(TracerIntern, ClearKeepsIdsValid)
{
    Tracer t;
    const TrackId track = t.internTrack("cpu0");
    const LabelId label = t.internLabel("job");
    t.recordInterval(track, label, 0, 10);
    event(t, "migration", "job", 5);
    t.clear();
    EXPECT_EQ(t.intervalCount(), 0u);
    EXPECT_EQ(t.countEvents("migration"), 0);
    // Ids interned before clear() still record correctly after.
    t.recordInterval(track, label, 20, 30);
    const Tracer::TrackStore &ivs = t.track(track);
    ASSERT_EQ(ivs.size(), 1u);
    EXPECT_EQ(ivs.begins[0], 20);
    EXPECT_EQ(t.findTrack("cpu0"), track);
}

} // namespace
} // namespace aitax::trace
