#include "app/background_load.h"

#include <cassert>

#include "runtime/execute.h"

namespace aitax::app {

BackgroundInferenceLoop::BackgroundInferenceLoop(soc::SocSystem &sys,
                                                 BackgroundLoadConfig cfg_in)
    : sys(sys), cfg(std::move(cfg_in)),
      engine(cachedEngine(*cfg.model, cfg.dtype, cfg.framework, cfg.threads)),
      taskName_("bg_" + cfg.model->id + "_p" + std::to_string(cfg.processId)),
      invoke_("bg_infer_p" + std::to_string(cfg.processId), cfg.processId)
{
    assert(cfg.model != nullptr);
}

void
BackgroundInferenceLoop::start(sim::TimeNs horizon)
{
    horizon_ = horizon;
    next();
}

void
BackgroundInferenceLoop::next()
{
    if (stopped || sys.simulator().now() >= horizon_)
        return;

    auto task = soc::makeTask(sys.arena(), taskName_.name(),
                              /*background=*/true);
    task->setTraceLabel(taskName_.resolve(sys.tracer()));
    task->reserve(engine.invokeStepCount());

    runtime::ExecOptions exec;
    exec.cpuThreads = cfg.threads;
    exec.background = true;
    engine.appendInvoke(sys, *task, exec, invoke_);

    task->setOnComplete([this](sim::TimeNs) {
        ++completed;
        next();
    });
    sys.scheduler().submit(std::move(task));
}

} // namespace aitax::app
