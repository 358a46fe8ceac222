/**
 * @file
 * Fig 3 reproduction: end-to-end latency of models on the CPU when run
 * as (1) the command-line benchmark, (2) the Android benchmark app and
 * (3) a real application.
 */

#include <iostream>

#include "bench/bench_common.h"

int
main(int argc, char **argv)
{
    using namespace aitax;
    using app::HarnessMode;
    bench::initBench(argc, argv);
    bench::heading(
        "Fig 3: CLI benchmark vs benchmark app vs real application "
        "(CPU, end-to-end ms)",
        "Fig 3 (comparison of inference latency between the TFLite "
        "command-line benchmark utility, TFLite Android benchmark app "
        "and example Android applications)",
        "apps slower than benchmarks for every model; e.g. Inception "
        "V3-fp32 app ~350 ms vs ~250 ms benchmark (~100 ms gap)");

    struct Entry
    {
        const char *model;
        tensor::DType dtype;
    };
    const Entry entries[] = {
        {"mobilenet_v1", tensor::DType::Float32},
        {"mobilenet_v1", tensor::DType::UInt8},
        {"efficientnet_lite0", tensor::DType::Float32},
        {"efficientnet_lite0", tensor::DType::UInt8},
        {"squeezenet", tensor::DType::Float32},
        {"inception_v3", tensor::DType::Float32},
        {"inception_v3", tensor::DType::UInt8},
        {"nasnet_mobile", tensor::DType::Float32},
    };

    stats::Table table({"Model", "Format", "CLI benchmark (ms)",
                        "Benchmark app (ms)", "Android app (ms)",
                        "App vs CLI"});

    // Three harness modes per model, all independent: run the whole
    // matrix on the sweep pool and read results back in order.
    std::vector<verify::Scenario> specs;
    for (const auto &e : entries) {
        for (auto mode : {HarnessMode::CliBenchmark,
                          HarnessMode::BenchmarkApp,
                          HarnessMode::AndroidApp}) {
            verify::Scenario spec = bench::benchScenario();
            spec.modelId = e.model;
            spec.dtype = e.dtype;
            spec.mode = mode;
            specs.push_back(spec);
        }
    }
    const auto reports = bench::runSpecs(specs);

    for (std::size_t i = 0; i < std::size(entries); ++i) {
        const auto &e = entries[i];
        const auto &cli = reports[3 * i];
        const auto &bench_app = reports[3 * i + 1];
        const auto &android = reports[3 * i + 2];

        table.addRow(
            {e.model, std::string(tensor::dtypeName(e.dtype)),
             bench::fmtMs(cli.endToEndMeanMs()),
             bench::fmtMs(bench_app.endToEndMeanMs()),
             bench::fmtMs(android.endToEndMeanMs()),
             "+" + stats::Table::num(
                       core::harnessGapPct(cli, android), 1) +
                 "%"});
    }
    table.render(std::cout);
    std::printf("\nBoth benchmark utilities mask the end-to-end "
                "penalties from data capture and pre-processing.\n");
    return 0;
}
