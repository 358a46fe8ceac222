/**
 * @file
 * Fig 4 reproduction: data-capture / pre-processing / inference
 * breakdown, benchmark vs application, in absolute milliseconds (4a)
 * and relative to inference latency (4b).
 */

#include <iostream>

#include "bench/bench_common.h"

int
main(int argc, char **argv)
{
    using namespace aitax;
    using core::Stage;
    bench::initBench(argc, argv);
    bench::heading(
        "Fig 4a/4b: capture + pre-processing vs inference, benchmark "
        "vs application (NNAPI-class pipelines on the SD845)",
        "Fig 4 (time spent on pre-processing and data capture compared "
        "to inference, TFLite benchmark utility vs Android apps)",
        "in apps, capture+pre rivals or exceeds inference (up to ~2x "
        "for quantized MobileNet/SSD); in benchmarks, float capture is "
        "negligible while integer (quantized) random generation is "
        "not; Inception v3 is the only model where inference "
        "dominates");

    struct Entry
    {
        const char *model;
        tensor::DType dtype;
    };
    const Entry entries[] = {
        {"mobilenet_v1", tensor::DType::UInt8},
        {"mobilenet_v1", tensor::DType::Float32},
        {"ssd_mobilenet_v2", tensor::DType::UInt8},
        {"efficientnet_lite0", tensor::DType::Float32},
        {"posenet", tensor::DType::Float32},
        {"deeplab_v3", tensor::DType::Float32},
        {"inception_v3", tensor::DType::UInt8},
        {"inception_v3", tensor::DType::Float32},
    };

    stats::Table abs_table({"Model", "Format", "Harness",
                            "capture (ms)", "pre-proc (ms)",
                            "inference (ms)", "post (ms)",
                            "E2E (ms)"});
    stats::Table rel_table({"Model", "Format", "Harness",
                            "capture/inf", "pre/inf",
                            "(cap+pre)/inf"});

    const app::HarnessMode modes[] = {app::HarnessMode::CliBenchmark,
                                      app::HarnessMode::AndroidApp};
    std::vector<verify::Scenario> specs;
    for (const auto &e : entries) {
        for (auto mode : modes) {
            verify::Scenario spec = bench::benchScenario();
            spec.modelId = e.model;
            spec.dtype = e.dtype;
            spec.mode = mode;
            specs.push_back(spec);
        }
    }
    const auto reports = bench::runSpecs(specs);

    std::size_t next = 0;
    for (const auto &e : entries) {
        for (auto mode : modes) {
            const auto &r = reports[next++];
            const std::string harness(app::harnessModeName(mode));
            abs_table.addRow(
                {e.model, std::string(tensor::dtypeName(e.dtype)),
                 harness,
                 bench::fmtMs(r.stageMeanMs(Stage::DataCapture)),
                 bench::fmtMs(r.stageMeanMs(Stage::PreProcessing)),
                 bench::fmtMs(r.stageMeanMs(Stage::Inference)),
                 bench::fmtMs(r.stageMeanMs(Stage::PostProcessing)),
                 bench::fmtMs(r.endToEndMeanMs())});
            const double inf = r.stageMeanMs(Stage::Inference);
            rel_table.addRow(
                {e.model, std::string(tensor::dtypeName(e.dtype)),
                 harness,
                 stats::Table::num(
                     r.stageMeanMs(Stage::DataCapture) / inf, 2),
                 stats::Table::num(
                     r.stageMeanMs(Stage::PreProcessing) / inf, 2),
                 stats::Table::num(
                     (r.stageMeanMs(Stage::DataCapture) +
                      r.stageMeanMs(Stage::PreProcessing)) /
                         inf,
                     2)});
        }
    }

    std::printf("--- Fig 4a: absolute stage latencies ---\n");
    abs_table.render(std::cout);
    std::printf("\n--- Fig 4b: relative to inference ---\n");
    rel_table.render(std::cout);
    return 0;
}
