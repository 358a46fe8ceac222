#include "spans.h"

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <limits>

namespace aitax::bench {

std::int64_t
nowNs()
{
    return std::chrono::duration_cast<std::chrono::nanoseconds>(
               std::chrono::steady_clock::now().time_since_epoch())
        .count();
}

std::int64_t
SpanLog::add(Span s)
{
    spans_.push_back(std::move(s));
    return static_cast<std::int64_t>(spans_.size()) - 1;
}

bool
SpanLog::writeChromeTrace(const std::string &path) const
{
    std::FILE *f = std::fopen(path.c_str(), "w");
    if (f == nullptr)
        return false;
    std::int64_t origin = std::numeric_limits<std::int64_t>::max();
    for (const Span &s : spans_)
        origin = std::min(origin, s.beginNs);
    std::fputs("{\"displayTimeUnit\": \"ms\", \"traceEvents\": [\n", f);
    for (std::size_t i = 0; i < spans_.size(); ++i) {
        const Span &s = spans_[i];
        // Span names are benchmark literals: no JSON escaping needed.
        std::fprintf(f,
                     "{\"name\": \"%s\", \"ph\": \"X\", \"ts\": %.3f, "
                     "\"dur\": %.3f, \"pid\": %d, \"tid\": %d, "
                     "\"args\": {\"request\": %lld, \"parent\": %lld}}%s\n",
                     s.name,
                     static_cast<double>(s.beginNs - origin) / 1e3,
                     static_cast<double>(s.endNs - s.beginNs) / 1e3, s.pid,
                     s.tid, static_cast<long long>(s.request),
                     static_cast<long long>(s.parent),
                     i + 1 < spans_.size() ? "," : "");
    }
    std::fputs("]}\n", f);
    return std::fclose(f) == 0;
}

} // namespace aitax::bench
