/**
 * @file
 * Chrome trace-event export.
 *
 * Writes the tracer's intervals and point events in the Trace Event
 * JSON format, loadable in chrome://tracing or Perfetto — the closest
 * open equivalent to browsing a Snapdragon Profiler capture.
 *
 * Serialization streams the columnar store into one output buffer
 * that never regrows (chrome_trace.cc says how). "ts" and "dur" are
 * exact microseconds, printed from the nanosecond count by integer
 * std::to_chars ("1167540", "1.5", "0.001"), so every nanosecond shows
 * and the bytes do not depend on the global locale. The byte format is
 * pinned by the recorded fixture tests/trace_fixtures/chrome_trace.json
 * (TraceEquiv.StreamingWriterMatchesFixtureBytes).
 */

#ifndef AITAX_TRACE_CHROME_TRACE_H
#define AITAX_TRACE_CHROME_TRACE_H

#include <ostream>
#include <string>

#include "trace/tracer.h"

namespace aitax::trace {

/**
 * Serialize a complete-event ("ph":"X") JSON array for every
 * interval, one "thread" per track, plus instant events for context
 * switches and migrations. Timestamps are exact microseconds, as the
 * format requires.
 */
std::string chromeTraceString(const Tracer &tracer);

/** Stream the same JSON to an ostream. */
void writeChromeTrace(std::ostream &os, const Tracer &tracer);

} // namespace aitax::trace

#endif // AITAX_TRACE_CHROME_TRACE_H
