#include "runtime/snpe.h"

namespace aitax::runtime::snpe {

Network::Network(graph::Graph g, tensor::DType dtype,
                 RuntimeTarget target)
    : Network(std::make_shared<const graph::Graph>(std::move(g)), dtype,
              target)
{
}

Network::Network(std::shared_ptr<const graph::Graph> g,
                 tensor::DType dtype, RuntimeTarget target)
    : graph_(std::move(g)), dtype_(dtype), target_(target)
{
    switch (target_) {
      case RuntimeTarget::Dsp: {
        // SNPE converts float models at DLC load time: the DSP
        // executes fp16 (or a quantized encoding), never fp32.
        const tensor::DType exec_dtype =
            (dtype_ == tensor::DType::Float32) ? tensor::DType::Float16
                                               : dtype_;
        plan_ = buildPlan(*graph_, exec_dtype,
                          {&drivers::snpeDspDriver()},
                          drivers::tfliteCpuDriver());
        break;
      }
      case RuntimeTarget::Gpu:
        plan_ = buildPlan(*graph_, dtype_,
                          {&drivers::tfliteGpuDelegateDriver()},
                          drivers::tfliteCpuDriver());
        break;
      case RuntimeTarget::Cpu:
        plan_ = buildPlan(*graph_, dtype_, {},
                          drivers::tfliteCpuDriver());
        break;
    }

    // DLC load + runtime graph preparation.
    initNs_ =
        sim::msToNs(30.0) +
        static_cast<sim::DurationNs>(
            static_cast<double>(graph_->paramBytes()) / 2.0e9 * 1e9);
}

void
Network::appendInvoke(soc::SocSystem &sys, soc::Task &task,
                      ExecOptions exec_opts, InvokeContext &ctx) const
{
    appendPlanExecution(sys, task, plan_, exec_opts, ctx);
}

} // namespace aitax::runtime::snpe
