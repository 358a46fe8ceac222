/**
 * @file
 * The benchmark's own span recorder. Spans stay in memory and are
 * written once, at exit, in Chrome trace-event format (loadable in
 * Perfetto or chrome://tracing). It deliberately does not use
 * src/trace, which is part of the system being measured.
 */

#ifndef AITAX_BENCHMARK_SPANS_H
#define AITAX_BENCHMARK_SPANS_H

#include <cstdint>
#include <string>
#include <vector>

namespace aitax::bench {

/** steady_clock (CLOCK_MONOTONIC) in ns: comparable across processes. */
std::int64_t nowNs();

struct Span
{
    /** A string literal. */
    const char *name = "";
    std::int64_t beginNs = 0;
    std::int64_t endNs = 0;
    int pid = 0;
    int tid = 0;
    /** Position of the enclosing span in the log, or -1. */
    std::int64_t parent = -1;
    /** Scenario index (the request id), or -1. */
    std::int64_t request = -1;
};

class SpanLog
{
  public:
    /** Append @p s; returns its position, for use as a parent. */
    std::int64_t add(Span s);

    std::size_t size() const { return spans_.size(); }

    /** Write every span as Chrome trace-event JSON; false on I/O error. */
    bool writeChromeTrace(const std::string &path) const;

  private:
    std::vector<Span> spans_;
};

} // namespace aitax::bench

#endif // AITAX_BENCHMARK_SPANS_H
