#include "app/background_load.h"

#include <cassert>

#include "runtime/execute.h"

namespace aitax::app {

BackgroundInferenceLoop::BackgroundInferenceLoop(soc::SocSystem &sys,
                                                 BackgroundLoadConfig cfg_in)
    : sys(sys), cfg(std::move(cfg_in)),
      engine(cachedEngine(*cfg.model, cfg.dtype, cfg.framework, cfg.threads))
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

    auto task = soc::makeTask(
        sys.arena(),
        "bg_" + cfg.model->id + "_p" + std::to_string(cfg.processId),
        /*background=*/true);

    runtime::ExecOptions exec;
    exec.processId = cfg.processId;
    exec.cpuThreads = cfg.threads;
    exec.background = true;
    exec.label = "bg_infer_p" + std::to_string(cfg.processId);
    engine.appendInvoke(sys, *task, exec);

    task->setOnComplete([this](sim::TimeNs) {
        ++completed;
        next();
    });
    sys.scheduler().submit(std::move(task));
}

} // namespace aitax::app
