/**
 * @file
 * The Chrome-trace serializer.
 *
 * The bytes are those the recorded fixture pins ("%g" microseconds);
 * the cost goes to three things only:
 *
 *  - numbers go through std::to_chars, which writes C-locale "%g" and
 *    integer bytes without reading the global locale (stats/numfmt.h);
 *  - whatever is constant per id or per track — an escaped label or
 *    event kind, a track's "tid" text — is formatted once per call
 *    and copied into each record that uses it;
 *  - the output is reserved once from an upper bound computed from the
 *    store sizes and the cached lengths, so it never regrows.
 */

#include "trace/chrome_trace.h"

#include <cassert>
#include <charconv>
#include <cstdint>
#include <string_view>
#include <vector>

#include "stats/numfmt.h"

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
 * Longest appendUs output. A nanosecond count is an int64, so its
 * microsecond value is below 1e16 in magnitude and "%g" prints at
 * most a sign, six digits, a point and a two-digit exponent
 * ("-1.23457e+15"), or in fixed form "-0.000123457".
 */
constexpr std::size_t kMaxUsChars = 12;

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

/**
 * Append a nanosecond timestamp as microseconds in %g form (six
 * significant digits), the format the recorded trace fixture pins.
 */
void
appendUs(std::string &out, sim::TimeNs ns)
{
    stats::appendG6(out, static_cast<double>(ns) / 1e3);
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
    // which counts as kMaxUsChars.
    std::size_t bound = kOpen.size() + kClose.size();
    for (std::size_t i = 0; i < tracks.size(); ++i) {
        const Tracer::TrackStore &t = tracer.track(tracks[i]);
        bound += kSep.size() + threads[i].size();
        bound += t.size() * (kSep.size() + kNameOpen.size() +
                             sliceMids[i].size() + kSliceDur.size() +
                             kSliceClose.size() + 2 * kMaxUsChars);
        for (LabelId label : t.labels)
            bound += labels[label.value].size();
    }
    bound += ev.size() * (kSep.size() + kNameOpen.size() +
                          kInstantMid.size() + kMaxUsChars +
                          kInstantArgs.size() + kArgsClose.size());
    for (std::size_t j = 0; j < ev.size(); ++j)
        bound += kinds[ev.kinds[j].value].size() +
                 labels[ev.details[j].value].size();

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
            appendUs(out, t.begins[j]);
            out += kSliceDur;
            appendUs(out, t.ends[j] - t.begins[j]);
            out += kSliceClose;
        }
    }

    for (std::size_t j = 0; j < ev.size(); ++j) {
        sep();
        out += kNameOpen;
        out += kinds[ev.kinds[j].value];
        out += kInstantMid;
        appendUs(out, ev.whens[j]);
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
