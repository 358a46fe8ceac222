#include "runtime/tflite.h"

namespace aitax::runtime::tflite {

std::string_view
delegateName(DelegateKind kind)
{
    switch (kind) {
      case DelegateKind::None: return "cpu";
      case DelegateKind::Gpu: return "gpu-delegate";
      case DelegateKind::Hexagon: return "hexagon-delegate";
      case DelegateKind::Nnapi: return "nnapi";
    }
    return "unknown";
}

Interpreter::Interpreter(graph::Graph g, tensor::DType dtype,
                         InterpreterOptions options)
    : Interpreter(std::make_shared<const graph::Graph>(std::move(g)),
                  dtype, options)
{
}

Interpreter::Interpreter(std::shared_ptr<const graph::Graph> g,
                         tensor::DType dtype, InterpreterOptions options)
    : graph_(std::move(g)), dtype_(dtype), opts(options)
{
    // Model load + tensor allocation, dominated by weight mapping.
    initNs = static_cast<sim::DurationNs>(graph_->opCount()) *
                 sim::usToNs(20.0) +
             static_cast<sim::DurationNs>(
                 static_cast<double>(graph_->paramBytes()) / 1.5e9 * 1e9);

    switch (opts.delegate) {
      case DelegateKind::None:
        plan_ =
            buildPlan(*graph_, dtype_, {}, drivers::tfliteCpuDriver());
        break;
      case DelegateKind::Gpu:
        plan_ = buildPlan(*graph_, dtype_,
                          {&drivers::tfliteGpuDelegateDriver()},
                          drivers::tfliteCpuDriver());
        // OpenCL program build at delegate creation.
        initNs += sim::msToNs(60.0);
        break;
      case DelegateKind::Hexagon:
        plan_ = buildPlan(*graph_, dtype_,
                          {&drivers::tfliteHexagonDelegateDriver()},
                          drivers::tfliteCpuDriver());
        // libhexagon_nn_skel load + graph prepare.
        initNs += sim::msToNs(25.0);
        break;
      case DelegateKind::Nnapi: {
        nnapi::Compilation compilation(*graph_, dtype_, opts.preference);
        plan_ = opts.useNnapiBurst ? compilation.burstPlan()
                                   : compilation.plan();
        initNs += compilation.compileNs();
        break;
      }
    }
}

void
Interpreter::appendInvoke(soc::SocSystem &sys, soc::Task &task,
                          ExecOptions exec_opts, InvokeContext &ctx) const
{
    exec_opts.cpuThreads = opts.threads;
    appendPlanExecution(sys, task, plan_, exec_opts, ctx);
}

} // namespace aitax::runtime::tflite
