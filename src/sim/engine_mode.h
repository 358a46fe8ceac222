/**
 * @file
 * Engine selector for the discrete-event core.
 *
 * The simulator ships two interchangeable inner loops:
 *
 *  - Reference: the straightforward heap-only engine. Every schedule
 *    is an immediate heap insert, every pop is nextTime() + popAndRun().
 *    This is the behaviour all goldens were recorded against and the
 *    baseline the differential harness (tests/test_differential.cc)
 *    compares against.
 *
 *  - Fast: the optimized engine — a one-slot front cache for the
 *    next-to-fire event in front of the 4-ary heap, a fused skip-ahead
 *    pop, and chained interference arrivals over a reserved seq band
 *    instead of pre-scheduling the whole horizon.
 *
 * Both engines execute events in identical (timestamp, seq) order, so
 * traces, reports and RNG draw sequences are byte-identical. That
 * equivalence is a tested contract, not an aspiration: `ctest -L
 * verify` runs reference-vs-fast differential corpora on every change.
 */

#ifndef AITAX_SIM_ENGINE_MODE_H
#define AITAX_SIM_ENGINE_MODE_H

#include <initializer_list>
#include <string_view>

namespace aitax::sim {

/** Which inner event-loop engine a Simulator runs. */
enum class EngineMode
{
    /** Heap-only legacy engine; differential-test baseline. */
    Reference,
    /** Front-cached, skip-ahead engine (production default). */
    Fast,
};

/** Short lowercase name ("reference" / "fast") for CLI and JSON. */
inline const char *
engineModeName(EngineMode mode)
{
    return mode == EngineMode::Reference ? "reference" : "fast";
}

/**
 * Inverse of engineModeName: set @p out from "fast" or "reference".
 * @return false, leaving @p out untouched, for any other name.
 */
inline bool
parseEngineMode(std::string_view name, EngineMode &out)
{
    for (const EngineMode mode :
         {EngineMode::Fast, EngineMode::Reference})
        if (name == engineModeName(mode)) {
            out = mode;
            return true;
        }
    return false;
}

} // namespace aitax::sim

#endif // AITAX_SIM_ENGINE_MODE_H
