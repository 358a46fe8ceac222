/**
 * @file
 * The benchmark's workloads and the scenario corpora they run.
 *
 * The benchmark generates every corpus from (corpus name, seed,
 * index); the program under test only ever receives the resulting
 * verify::Scenario values, in process or by a campaign spec line that
 * a benchmark worker resolves back through corpusScenario().
 */

#ifndef AITAX_BENCHMARK_CORPUS_H
#define AITAX_BENCHMARK_CORPUS_H

#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

#include "verify/scenario.h"

namespace aitax::bench {

/** Campaign chunk size; also the corpus unit the self-checks re-run. */
constexpr int kChunk = 32;

/** Workers (fleet) or pool threads (in-process) per workload. */
constexpr int kWorkers = 2;

/** The seed the committed fingerprints were recorded with. */
constexpr std::uint64_t kDefaultSeed = 2021;

struct Workload
{
    const char *name;
    /** Corpus name: "fuzz", "tiny", "paper" or "verify". */
    const char *corpus;
    /** Runs as an aitax campaign (true) or in-process verify (false). */
    bool fleet;
    /** Scenarios per measured pass; pass p runs slice p of the corpus. */
    int passScenarios;
    /** Scenarios per pass under --smoke. */
    int smokeScenarios;
    /** Pass 0 at kDefaultSeed: total events and "%.17g" checksum_ms. */
    std::uint64_t fingerprintEvents;
    const char *fingerprintChecksumMs;
};

const std::vector<Workload> &workloads();

/** The workload called @p name, or nullptr. */
const Workload *findWorkload(std::string_view name);

/** Scenario @p index of corpus @p corpus under master seed @p seed. */
verify::Scenario corpusScenario(std::string_view corpus,
                                std::uint64_t seed, int index);

} // namespace aitax::bench

#endif // AITAX_BENCHMARK_CORPUS_H
