/**
 * @file
 * Fig 11 reproduction: run-to-run latency distributions of MobileNet
 * v1 on the CPU — tight for the benchmark utility, wide for the real
 * application.
 */

#include <iostream>

#include "bench/bench_common.h"

namespace {

using namespace aitax;

void
printDistribution(const char *title, const stats::Distribution &d)
{
    std::printf("--- %s ---\n", title);
    std::printf("n=%zu mean=%.2f ms median=%.2f ms p5=%.2f p95=%.2f "
                "min=%.2f max=%.2f cv=%.3f max-dev-from-median=%.1f%%\n",
                d.count(), d.mean(), d.median(), d.percentile(5.0),
                d.p95(), d.min(), d.max(), d.cv(),
                d.maxDeviationFromMedianPct());
    // ASCII histogram.
    const auto bins = d.histogram(18);
    std::size_t peak = 1;
    for (const auto &b : bins)
        peak = std::max(peak, b.count);
    for (const auto &b : bins) {
        std::printf("  %7.2f-%7.2f ms |", b.lo, b.hi);
        const int width =
            static_cast<int>(50.0 * static_cast<double>(b.count) /
                             static_cast<double>(peak));
        for (int i = 0; i < width; ++i)
            std::printf("#");
        std::printf(" %zu\n", b.count);
    }
    std::printf("\n");
}

} // namespace

int
main(int argc, char **argv)
{
    bench::initBench(argc, argv);
    bench::heading(
        "Fig 11: run-to-run latency distribution, benchmark vs app "
        "(MobileNet v1, CPU)",
        "Fig 11 (latency distribution for image classification using "
        "MobileNet v1 on the CPU, applications vs the TFLite benchmark "
        "utility)",
        "benchmark runs form a very tight distribution; the same model "
        "inside an app spreads widely, deviating by tens of percent "
        "(paper: up to ~30%) from the median due to capture, "
        "scheduling and interrupt-timing noise");

    verify::Scenario spec = bench::benchScenario();
    spec.modelId = "mobilenet_v1";
    spec.dtype = tensor::DType::Float32;
    spec.framework = app::FrameworkKind::TfliteCpu;

    std::vector<verify::Scenario> specs(2, spec);
    specs[0].mode = app::HarnessMode::CliBenchmark;
    specs[1].mode = app::HarnessMode::AndroidApp;
    const auto reports = bench::runSpecs(specs);
    const auto &bench_report = reports[0];
    const auto &app_report = reports[1];

    printDistribution("TFLite benchmark utility (E2E ms)",
                      bench_report.endToEnd());
    printDistribution("Android application (E2E ms)",
                      app_report.endToEnd());

    std::printf("CV ratio app/benchmark: %.1fx\n",
                app_report.endToEnd().cv() /
                    bench_report.endToEnd().cv());
    return 0;
}
