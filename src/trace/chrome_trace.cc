#include "trace/chrome_trace.h"

#include <cstdio>
#include <string_view>

namespace aitax::trace {

namespace {

/**
 * Append a string escaped for a JSON literal. Escapes the two
 * mandatory characters plus every control character < 0x20 (named
 * escapes where JSON has them, \u00XX otherwise) — a raw control
 * character in a task label must not produce invalid JSON.
 */
void
appendEscaped(std::string &out, std::string_view s)
{
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
          default:
            if (static_cast<unsigned char>(c) < 0x20) {
                char buf[8];
                std::snprintf(buf, sizeof(buf), "\\u%04x",
                              static_cast<unsigned>(
                                  static_cast<unsigned char>(c)));
                out += buf;
            } else {
                out += c;
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
    char buf[32];
    std::snprintf(buf, sizeof(buf), "%g",
                  static_cast<double>(ns) / 1e3);
    out += buf;
}

void
appendInt(std::string &out, long long v)
{
    char buf[24];
    std::snprintf(buf, sizeof(buf), "%lld", v);
    out += buf;
}

} // namespace

std::string
chromeTraceString(const Tracer &tracer)
{
    std::string out;
    out += "[\n";
    bool first = true;
    auto sep = [&] {
        if (!first)
            out += ",\n";
        first = false;
    };

    // Stable thread ids per track (1..N in sorted-name order), plus
    // name metadata events.
    const std::vector<TrackId> tracks = tracer.sortedNonEmptyTracks();
    for (std::size_t i = 0; i < tracks.size(); ++i) {
        sep();
        out += R"({"name":"thread_name","ph":"M","pid":1,"tid":)";
        appendInt(out, static_cast<long long>(i + 1));
        out += R"(,"args":{"name":")";
        appendEscaped(out, tracer.trackName(tracks[i]));
        out += R"("}})";
    }

    for (std::size_t i = 0; i < tracks.size(); ++i) {
        const Tracer::TrackStore &t = tracer.track(tracks[i]);
        for (std::size_t j = 0; j < t.size(); ++j) {
            sep();
            out += R"({"name":")";
            appendEscaped(out, tracer.labelName(t.labels[j]));
            out += R"(","ph":"X","pid":1,"tid":)";
            appendInt(out, static_cast<long long>(i + 1));
            out += R"(,"ts":)";
            appendUs(out, t.begins[j]);
            out += R"(,"dur":)";
            appendUs(out, t.ends[j] - t.begins[j]);
            out += "}";
        }
    }

    const Tracer::EventStore &ev = tracer.eventStore();
    for (std::size_t j = 0; j < ev.size(); ++j) {
        sep();
        out += R"({"name":")";
        appendEscaped(out, tracer.eventKindName(ev.kinds[j]));
        out += R"(","ph":"i","s":"g","pid":1,"tid":0,"ts":)";
        appendUs(out, ev.whens[j]);
        out += R"(,"args":{"detail":")";
        appendEscaped(out, tracer.labelName(ev.details[j]));
        out += R"("}})";
    }

    out += "\n]\n";
    return out;
}

void
writeChromeTrace(std::ostream &os, const Tracer &tracer)
{
    const std::string s = chromeTraceString(tracer);
    os.write(s.data(), static_cast<std::streamsize>(s.size()));
}

} // namespace aitax::trace
