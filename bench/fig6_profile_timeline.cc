/**
 * @file
 * Fig 6 reproduction: profiler-style execution timelines of quantized
 * EfficientNet-Lite0 under (1) the CPU thread pool, (2) the Hexagon
 * delegate and (3) NNAPI automatic device selection — our stand-in for
 * the Snapdragon Profiler screenshots.
 */

#include <iostream>

#include "bench/bench_common.h"
#include "trace/render.h"

namespace {

using namespace aitax;

void
runAndRender(app::FrameworkKind fw, const char *title,
             bool dsp_probe_at_start)
{
    soc::SocSystem sys(soc::makeSnapdragon845(), 7);
    app::PipelineConfig cfg;
    cfg.model = models::findModel("efficientnet_lite0");
    cfg.dtype = tensor::DType::UInt8;
    cfg.framework = fw;
    cfg.mode = app::HarnessMode::BenchmarkApp;
    app::Application application(sys, cfg);

    if (dsp_probe_at_start) {
        // NNAPI compilation probes the vendor DSP driver before giving
        // up on it: the brief CDSP utilization spike at the start of
        // the measured profile (annotation in the paper's Fig 6).
        soc::AccelJob probe;
        probe.label = sys.tracer().internLabel("nnapi_driver_probe");
        probe.ops = 2.0e8;
        probe.bytes = 2.0e6;
        probe.format = tensor::DType::UInt8;
        sys.fastrpc().call(99, 1.0e6, std::move(probe), {});
    }

    core::TaxReport report;
    sim::TimeNs runs_done = 0;
    application.scheduleRuns(
        12, report, [&](sim::TimeNs t) { runs_done = t; });
    sys.run();

    std::printf("--- %s ---\n", title);
    std::printf("inference mean %.2f ms, E2E mean %.2f ms\n",
                report.stageMeanMs(core::Stage::Inference),
                report.endToEndMeanMs());
    trace::renderTimeline(std::cout, sys.tracer(), 0, runs_done, 72);
    std::printf("scheduler: %lld context switches, %lld migrations, "
                "DSP jobs completed: %lld\n\n",
                static_cast<long long>(sys.scheduler().contextSwitches()),
                static_cast<long long>(sys.scheduler().migrations()),
                static_cast<long long>(sys.dsp().jobsCompleted()));
}

} // namespace

int
main()
{
    bench::heading(
        "Fig 6: execution profile of EfficientNet-Lite0 INT8",
        "Fig 6 (Snapdragon Profiler output while running the model on "
        "the CPU, the Hexagon delegate, and NNAPI)",
        "(1) CPU: cores 4-7 saturated; (2) Hexagon: cDSP busy with "
        "raised AXI traffic; (3) NNAPI: initial cDSP spike, then "
        "single-threaded CPU execution with sporadic utilization "
        "across cores 4-7 and frequent migrations");

    runAndRender(aitax::app::FrameworkKind::TfliteCpu,
                 "(1) CPU thread pool (4 threads)", false);
    runAndRender(aitax::app::FrameworkKind::TfliteHexagon,
                 "(2) TFLite Hexagon delegate", false);
    runAndRender(aitax::app::FrameworkKind::TfliteNnapi,
                 "(3) NNAPI automatic device selection", true);
    return 0;
}
