#include "corpus.h"

#include <numeric>

#include "models/zoo.h"
#include "soc/chipsets.h"

namespace aitax::bench {

namespace {

/**
 * Paper-sweep repetitions: consecutive groups of this many scenarios
 * share one configuration (with different seeds), so every chunk holds
 * whole groups and the first CLI-mode run of a group captures the
 * warm-up snapshot that the rest of the group restores.
 */
constexpr int kPaperRepeats = 4;
constexpr int kPaperRuns = 50;

/** Every valid Table I model x dtype x Table II SoC x framework x mode. */
const std::vector<verify::Scenario> &
paperConfigs()
{
    static const std::vector<verify::Scenario> configs = [] {
        static const app::FrameworkKind kFrameworks[] = {
            app::FrameworkKind::TfliteCpu,
            app::FrameworkKind::TfliteGpu,
            app::FrameworkKind::TfliteHexagon,
            app::FrameworkKind::TfliteNnapi,
            app::FrameworkKind::SnpeDsp,
        };
        static const app::HarnessMode kModes[] = {
            app::HarnessMode::CliBenchmark,
            app::HarnessMode::BenchmarkApp,
            app::HarnessMode::AndroidApp,
        };
        std::vector<verify::Scenario> out;
        for (const auto &model : models::allModels())
            for (tensor::DType dtype :
                 {tensor::DType::Float32, tensor::DType::UInt8})
                for (const auto &platform : soc::allPlatforms())
                    for (app::FrameworkKind fw : kFrameworks)
                        for (app::HarnessMode mode : kModes) {
                            verify::Scenario s;
                            s.modelId = model.id;
                            s.dtype = dtype;
                            s.socName = platform.socName;
                            s.framework = fw;
                            s.mode = mode;
                            s.runs = kPaperRuns;
                            if (verify::scenarioValid(s))
                                out.push_back(s);
                        }
        return out;
    }();
    return configs;
}

/**
 * Group g runs configuration (g * stride) mod K, with the stride the
 * first integer coprime to K from K / golden ratio on. Any K
 * consecutive groups visit every configuration once, and neighbouring
 * groups sit far apart in the model-major list, so the costly
 * configurations (MobileBERT, Inception v4) spread over all chunks.
 */
std::uint64_t
paperStride()
{
    static const std::uint64_t stride = [] {
        const std::uint64_t k = paperConfigs().size();
        auto s = static_cast<std::uint64_t>(0.6180339887 *
                                            static_cast<double>(k));
        while (std::gcd(s, k) != 1)
            ++s;
        return s;
    }();
    return stride;
}

} // namespace

const std::vector<Workload> &
workloads()
{
    // A pass takes about 2-6 s on a 4-core x86 VM with two workers.
    // A paper-sweep pass runs every configuration kPaperRepeats times.
    // The fingerprints are pass 0 at seed 2021.
    static const std::vector<Workload> all = {
        {"fleet-fuzz", "fuzz", true, 2048, 128, 10625714,
         "518086.08218192146"},
        {"fleet-tiny", "tiny", true, 16384, 1024, 10012302,
         "4446493.8012880012"},
        {"paper-sweep", "paper", true,
         kPaperRepeats * static_cast<int>(paperConfigs().size()), 32,
         37739898, "866045.87135270005"},
        {"verify-fuzz", "verify", false, 1024, 64, 6518209,
         "354010.92326139309"},
    };
    return all;
}

const Workload *
findWorkload(std::string_view name)
{
    for (const Workload &w : workloads())
        if (name == w.name)
            return &w;
    return nullptr;
}

verify::Scenario
corpusScenario(std::string_view corpus, std::uint64_t seed, int index)
{
    if (corpus == "paper") {
        const auto &configs = paperConfigs();
        const auto group =
            static_cast<std::uint64_t>(index / kPaperRepeats);
        verify::Scenario s =
            configs[(group * paperStride()) % configs.size()];
        s.seed = sim::RandomStream(seed, "paper-sweep-" +
                                             std::to_string(index))
                     .nextU64() >>
                 1;
        return s;
    }
    verify::Scenario s = verify::fuzzScenario(seed, index);
    if (corpus == "tiny") {
        s.mode = app::HarnessMode::CliBenchmark;
        s.runs = 1;
    } else if (corpus == "verify") {
        s.faults = true;
    }
    return s;
}

} // namespace aitax::bench
