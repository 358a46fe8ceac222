/**
 * @file
 * The Chrome-trace serializer.
 *
 * "ts" and "dur" are exact microseconds: the nanosecond count divided
 * by 1000, then a point and up to three fractional digits with
 * trailing zeros cut, and no point when the fraction is 0
 * ("1167540", "1.5", "0.001"). The recorded fixture pins the bytes.
 * The cost goes to three things only:
 *
 *  - numbers are written by integer std::to_chars, so there is no
 *    floating-point formatting and no read of the global locale;
 *  - whatever is constant per id or per track — an escaped label or
 *    event kind, a track's "tid" text — is formatted once per call
 *    and copied into each record that uses it;
 *  - the output is reserved once from an upper bound computed from the
 *    store sizes, the cached lengths and the widest number the trace
 *    holds, so it never regrows.
 */

#include "trace/chrome_trace.h"

#include <algorithm>
#include <cassert>
#include <charconv>
#include <cstdint>
#include <string_view>
#include <vector>

namespace aitax::trace {

namespace {

// The fixed text of the document and of each record kind, outside the
// per-track tables. The writer and the size bound read the same
// constants.
constexpr std::string_view kOpen = "[\n";
constexpr std::string_view kClose = "\n]\n";
constexpr std::string_view kSep = ",\n";
constexpr std::string_view kNameOpen = R"({"name":")";
constexpr std::string_view kSliceDur = R"(,"dur":)";
constexpr std::string_view kSliceClose = "}";
constexpr std::string_view kInstantMid =
    R"(","ph":"i","s":"g","pid":1,"tid":0,"ts":)";
constexpr std::string_view kInstantArgs = R"(,"args":{"detail":")";
constexpr std::string_view kArgsClose = R"("}})";

/**
 * Append a string escaped for a JSON literal. Escapes the two
 * mandatory characters plus every control character < 0x20 (named
 * escapes where JSON has them, \u00XX otherwise) — a raw control
 * character in a task label must not produce invalid JSON.
 */
void
appendEscaped(std::string &out, std::string_view s)
{
    static constexpr char kHex[] = "0123456789abcdef";
    for (char c : s) {
        switch (c) {
          case '"':
            out += "\\\"";
            break;
          case '\\':
            out += "\\\\";
            break;
          case '\n':
            out += "\\n";
            break;
          case '\t':
            out += "\\t";
            break;
          case '\r':
            out += "\\r";
            break;
          case '\b':
            out += "\\b";
            break;
          case '\f':
            out += "\\f";
            break;
          default: {
            const auto u = static_cast<unsigned char>(c);
            if (u < 0x20) {
                const char esc[] = {'\\', 'u', '0', '0', kHex[u >> 4],
                                    kHex[u & 0xf]};
                out.append(esc, sizeof(esc));
            } else {
                out += c;
            }
          }
        }
    }
}

/** |v| as an unsigned count; defined for INT64_MIN too. */
std::uint64_t
magnitude(sim::TimeNs v)
{
    const auto u = static_cast<std::uint64_t>(v);
    return v < 0 ? 0 - u : u;
}

/**
 * end - begin, computed unsigned so that no pair of int64 stamps can
 * overflow it; recordInterval keeps only end > begin.
 */
std::uint64_t
duration(sim::TimeNs begin, sim::TimeNs end)
{
    return static_cast<std::uint64_t>(end) -
           static_cast<std::uint64_t>(begin);
}

/**
 * Most bytes appendUs writes for a count of at most @p widest ns: the
 * integer digits of widest / 1000, a point and three fraction digits.
 */
std::size_t
usChars(std::uint64_t widest)
{
    std::size_t digits = 1;
    for (std::uint64_t us = widest / 1000; us >= 10; us /= 10)
        ++digits;
    return digits + 4;
}

/**
 * Append @p ns nanoseconds as exact microseconds: ns / 1000, then a
 * point and the fraction digits with trailing zeros cut, or no point
 * when the fraction is 0.
 */
void
appendUs(std::string &out, std::uint64_t ns)
{
    char buf[24];
    char *p = std::to_chars(buf, buf + sizeof(buf), ns / 1000).ptr;
    if (const auto frac = static_cast<unsigned>(ns % 1000); frac != 0) {
        *p++ = '.';
        *p++ = static_cast<char>('0' + frac / 100);
        if (frac % 100 != 0) {
            *p++ = static_cast<char>('0' + frac / 10 % 10);
            if (frac % 10 != 0)
                *p++ = static_cast<char>('0' + frac % 10);
        }
    }
    out.append(buf, p);
}

/** Append a signed stamp: '-' if negative, then its magnitude. */
void
appendStamp(std::string &out, sim::TimeNs ns)
{
    if (ns < 0)
        out += '-';
    appendUs(out, magnitude(ns));
}

void
appendInt(std::string &out, std::size_t v)
{
    char buf[24];
    const auto r = std::to_chars(buf, buf + sizeof(buf), v);
    out.append(buf, r.ptr);
}

} // namespace

std::string
chromeTraceString(const Tracer &tracer)
{
    // Stable thread ids per track: 1..N in sorted-name order.
    const std::vector<TrackId> tracks = tracer.sortedNonEmptyTracks();
    const Tracer::EventStore &ev = tracer.eventStore();

    // Every interned name escaped once, indexed by id.
    std::vector<std::string> labels(tracer.labelCount());
    for (std::uint32_t id = 0; id < labels.size(); ++id)
        appendEscaped(labels[id], tracer.labelName(LabelId{id}));
    std::vector<std::string> kinds(tracer.eventKindCount());
    for (std::uint32_t id = 0; id < kinds.size(); ++id)
        appendEscaped(kinds[id], tracer.eventKindName(EventKindId{id}));

    // Per track: its thread-name metadata record, and the text between
    // the label and the "ts" value of each of its intervals.
    std::vector<std::string> threads(tracks.size());
    std::vector<std::string> sliceMids(tracks.size());
    for (std::size_t i = 0; i < tracks.size(); ++i) {
        threads[i] = R"({"name":"thread_name","ph":"M","pid":1,"tid":)";
        appendInt(threads[i], i + 1);
        threads[i] += R"(,"args":{"name":")";
        appendEscaped(threads[i], tracer.trackName(tracks[i]));
        threads[i] += kArgsClose;
        sliceMids[i] = R"(","ph":"X","pid":1,"tid":)";
        appendInt(sliceMids[i], i + 1);
        sliceMids[i] += R"(,"ts":)";
    }

    // Upper bound on the output: exact but for the numbers, each of
    // which counts as wide as the widest one the trace holds, plus a
    // sign if any stamp is negative.
    std::size_t bound = kOpen.size() + kClose.size();
    std::size_t numbers = ev.size();
    std::uint64_t widest = 0;
    bool negative = false;
    for (std::size_t i = 0; i < tracks.size(); ++i) {
        const Tracer::TrackStore &t = tracer.track(tracks[i]);
        bound += kSep.size() + threads[i].size();
        bound += t.size() * (kSep.size() + kNameOpen.size() +
                             sliceMids[i].size() + kSliceDur.size() +
                             kSliceClose.size());
        numbers += 2 * t.size();
        for (std::size_t j = 0; j < t.size(); ++j) {
            bound += labels[t.labels[j].value].size();
            widest = std::max({widest, magnitude(t.begins[j]),
                               duration(t.begins[j], t.ends[j])});
            negative |= t.begins[j] < 0;
        }
    }
    bound += ev.size() * (kSep.size() + kNameOpen.size() +
                          kInstantMid.size() + kInstantArgs.size() +
                          kArgsClose.size());
    for (std::size_t j = 0; j < ev.size(); ++j) {
        bound += kinds[ev.kinds[j].value].size() +
                 labels[ev.details[j].value].size();
        widest = std::max(widest, magnitude(ev.whens[j]));
        negative |= ev.whens[j] < 0;
    }
    bound += numbers * (usChars(widest) + (negative ? 1 : 0));

    std::string out;
    out.reserve(bound);
    out += kOpen;
    bool first = true;
    auto sep = [&] {
        if (!first)
            out += kSep;
        first = false;
    };

    for (std::size_t i = 0; i < tracks.size(); ++i) {
        sep();
        out += threads[i];
    }

    for (std::size_t i = 0; i < tracks.size(); ++i) {
        const Tracer::TrackStore &t = tracer.track(tracks[i]);
        const std::string &mid = sliceMids[i];
        for (std::size_t j = 0; j < t.size(); ++j) {
            sep();
            out += kNameOpen;
            out += labels[t.labels[j].value];
            out += mid;
            appendStamp(out, t.begins[j]);
            out += kSliceDur;
            appendUs(out, duration(t.begins[j], t.ends[j]));
            out += kSliceClose;
        }
    }

    for (std::size_t j = 0; j < ev.size(); ++j) {
        sep();
        out += kNameOpen;
        out += kinds[ev.kinds[j].value];
        out += kInstantMid;
        appendStamp(out, ev.whens[j]);
        out += kInstantArgs;
        out += labels[ev.details[j].value];
        out += kArgsClose;
    }

    out += kClose;
    assert(out.size() <= bound);
    return out;
}

void
writeChromeTrace(std::ostream &os, const Tracer &tracer)
{
    const std::string s = chromeTraceString(tracer);
    os.write(s.data(), static_cast<std::streamsize>(s.size()));
}

} // namespace aitax::trace
