/**
 * @file
 * Text rendering of a trace — the profiler-style timeline output used
 * to reproduce Fig 6.
 */

#ifndef AITAX_TRACE_RENDER_H
#define AITAX_TRACE_RENDER_H

#include <cstddef>
#include <ostream>

#include "sim/time.h"
#include "trace/tracer.h"

namespace aitax::trace {

/**
 * Render per-track utilization as rows of density glyphs
 * (' .:-=+*#%@' for 0..100%), one row per track, then the AXI counter
 * rate and the context-switch / migration counts, over @p buckets
 * timeline columns.
 */
void renderTimeline(std::ostream &os, const Tracer &tracer,
                    sim::TimeNs t0, sim::TimeNs t1,
                    std::size_t buckets);

} // namespace aitax::trace

#endif // AITAX_TRACE_RENDER_H
