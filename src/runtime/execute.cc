#include "runtime/execute.h"

#include <algorithm>
#include <cassert>
#include <memory>
#include <utility>

#include "faults/injector.h"

namespace aitax::runtime {

using drivers::Target;
using soc::AccelJob;
using soc::BlockResume;
using soc::Task;
using soc::WorkClass;

namespace {

/** Reference big-core scalar throughput used to size overhead work. */
constexpr double kScalarOpsPerNs = 3.5;

WorkClass
workClassFor(tensor::DType dtype)
{
    return tensor::isQuantized(dtype) ? WorkClass::VectorI8
                                      : WorkClass::VectorF32;
}

tensor::DType
accelFormatFor(tensor::DType dtype, const drivers::Driver &driver)
{
    // DSPs have no fp32 path: float plans that reach a DSP (SNPE's
    // converted networks) execute in fp16.
    if (driver.target() == Target::Dsp &&
        dtype == tensor::DType::Float32) {
        return tensor::DType::Float16;
    }
    return dtype;
}

/** An accelerator job that resumes its blocked task on completion. */
AccelJob
resumingJob(trace::LabelId label, double ops, double bytes,
            tensor::DType format, BlockResume resume)
{
    AccelJob job;
    job.label = label;
    job.ops = ops;
    job.bytes = bytes;
    job.format = format;
    job.onDone = [resume = std::move(resume)](const soc::AccelCompletion &) {
        resume();
    };
    return job;
}

/**
 * Degraded-mode execution after a permanent DSP offload failure:
 * walk the NNAPI-style chain (GPU first, CPU last resort) and run
 * the failed @p job's work there. The elapsed fallback time is
 * charged to the fault ledger and, when the caller asked, to its
 * degraded-time accumulator.
 */
void
runDegradedFallback(soc::SocSystem *system, const AccelJob &job,
                    InvokeContext *ctx, BlockResume resume)
{
    const sim::TimeNs began = system->simulator().now();
    faults::FaultInjector *faults = system->faults();
    auto account = [system, faults, began, ctx, resume] {
        const sim::DurationNs elapsed =
            system->simulator().now() - began;
        if (faults)
            faults->recordDegradedExec(elapsed);
        if (ctx->degradedNs())
            *ctx->degradedNs() += elapsed;
        resume();
    };
    for (Target next : degradationChainAfter(Target::Dsp)) {
        if (next == Target::Gpu) {
            if (!system->gpu().supportsFormat(job.format))
                continue;
            if (faults)
                faults->recordFallback(faults::ChainLink::Dsp,
                                       faults::ChainLink::Gpu, began);
            AccelJob fallback;
            fallback.label =
                ctx->job("fallback_gpu").resolve(system->tracer());
            fallback.ops = job.ops;
            fallback.bytes = job.bytes;
            fallback.format = job.format;
            fallback.onDone = [account](const soc::AccelCompletion &) {
                account();
            };
            system->gpu().submit(std::move(fallback));
            return;
        }
        if (faults)
            faults->recordFallback(faults::ChainLink::Dsp,
                                   faults::ChainLink::Cpu, began);
        auto worker =
            soc::makeTask(system->arena(), ctx->fallbackCpuName());
        // The plan's class: a DSP's fp16 is as unquantized as the fp32
        // it stands in for.
        worker->compute({job.ops, job.bytes}, workClassFor(job.format));
        worker->setOnComplete(
            [account](sim::TimeNs) { account(); });
        system->scheduler().submit(std::move(worker));
        return;
    }
    resume(); // chain exhausted; nothing left to degrade to
}

} // namespace

InvokeContext::InvokeContext(std::string label, std::int32_t process_id,
                             std::vector<soc::FastRpcBreakdown> *rpc_log,
                             sim::DurationNs *degraded_ns)
    : label_(std::move(label)), processId_(process_id), rpcLog_(rpc_log),
      degradedNs_(degraded_ns)
{
}

trace::LazyLabel &
InvokeContext::worker(int t)
{
    assert(t >= 0);
    while (workers_.size() <= static_cast<std::size_t>(t))
        workers_.emplace_back(label_ + "_w" +
                              std::to_string(workers_.size()));
    return workers_[static_cast<std::size_t>(t)];
}

trace::LazyLabel &
InvokeContext::job(std::string_view device)
{
    // A context offloads to a handful of devices: scan, don't hash.
    const std::size_t prefix = label_.size() + 1;
    for (trace::LazyLabel &j : jobs_)
        if (std::string_view(j.name()).substr(prefix) == device)
            return j;
    std::string name = label_;
    name += '@';
    name += device;
    return jobs_.emplace_back(std::move(name));
}

std::string_view
InvokeContext::fallbackCpuName()
{
    if (fallbackCpu_.empty())
        fallbackCpu_ = label_ + "_fallback_cpu";
    return fallbackCpu_;
}

sim::Work
workForCpuNs(double ns)
{
    return {ns * kScalarOpsPerNs, 0.0};
}

std::size_t
planStepCount(const ExecutionPlan &plan)
{
    // Per partition: the handoff (all but the first), the driver
    // overhead (when nonzero), then one compute or block step.
    std::size_t steps = 0;
    for (std::size_t pi = 0; pi < plan.partitions.size(); ++pi)
        steps += (pi > 0 ? 1 : 0) +
                 (plan.partitions[pi].opOverheadNs > 0 ? 1 : 0) + 1;
    return steps;
}

void
appendPlanExecution(soc::SocSystem &sys, Task &task,
                    const ExecutionPlan &plan, const ExecOptions &opts,
                    InvokeContext &ctx)
{
    assert(!plan.partitions.empty());
    soc::SocSystem *system = &sys;
    InvokeContext *context = &ctx;
    [[maybe_unused]] const std::size_t steps_before = task.stepCount();

    // Per-invocation multiplicative factors, drawn deterministically.
    auto &rng = sys.rng();
    const double noise =
        opts.noiseSigma > 0.0 ? rng.lognormalFactor(opts.noiseSigma)
                              : 1.0;
    // Only draw the probe-effect factor when something is offloaded:
    // instrumentation has no effect on pure CPU paths (Section III-D),
    // and drawing would needlessly perturb the noise stream.
    bool any_accelerated = false;
    for (const auto &part : plan.partitions)
        any_accelerated |= part.driver->isAccelerated();
    const double instr_accel =
        (opts.instrumentation && any_accelerated)
            ? opts.instrumentation->acceleratedSlowdown(rng)
            : 1.0;

    const WorkClass cls = workClassFor(plan.dtype);

    for (std::size_t pi = 0; pi < plan.partitions.size(); ++pi) {
        const Partition &part = plan.partitions[pi];

        // Tensor handoff when crossing a partition boundary.
        if (pi > 0) {
            task.compute({part.inputBytes * 0.5, part.inputBytes * 2.0},
                         WorkClass::Scalar);
        }

        // CPU-side driver scheduling overhead for this partition.
        if (part.opOverheadNs > 0) {
            task.compute(
                workForCpuNs(static_cast<double>(part.opOverheadNs)),
                WorkClass::Scalar);
        }

        switch (part.driver->target()) {
          case Target::CpuThreads: {
            const int threads = std::max(opts.cpuThreads, 1);
            if (threads == 1) {
                task.compute({part.deviceOps * noise, part.bytes}, cls);
                break;
            }
            const double per_thread_ops = part.deviceOps * noise /
                                          (threads *
                                           opts.parallelEfficiency);
            const double per_thread_bytes =
                part.bytes / static_cast<double>(threads);
            const bool background = opts.background;
            task.block([system, context, per_thread_ops,
                        per_thread_bytes, threads, cls,
                        background](Task &, BlockResume resume) {
                // The pool's countdown lives in the run's arena (the
                // heap when the system has none).
                auto remaining = std::allocate_shared<int>(
                    sim::ArenaAllocator<int>(system->arena()), threads);
                for (int t = 0; t < threads; ++t) {
                    trace::LazyLabel &name = context->worker(t);
                    auto worker = soc::makeTask(system->arena(),
                                                name.name(), background);
                    worker->setTraceLabel(name.resolve(system->tracer()));
                    worker->compute({per_thread_ops, per_thread_bytes},
                                    cls);
                    worker->setOnComplete(
                        [remaining, resume](sim::TimeNs) {
                            if (--(*remaining) == 0)
                                resume();
                        });
                    system->scheduler().submit(std::move(worker));
                }
            });
            break;
          }

          case Target::CpuSingleThreadReference: {
            task.compute({part.deviceOps * noise, part.bytes}, cls);
            break;
          }

          case Target::Gpu:
          case Target::Dsp: {
            const trace::LabelId label =
                ctx.job(part.driver->name()).resolve(sys.tracer());
            const double ops = part.deviceOps * noise * instr_accel;
            const double bytes = part.bytes;
            const tensor::DType format =
                accelFormatFor(plan.dtype, *part.driver);
            if (part.driver->target() == Target::Gpu) {
                task.block([system, ops, bytes, label, format](
                               Task &, BlockResume resume) {
                    system->gpu().submit(resumingJob(
                        label, ops, bytes, format, std::move(resume)));
                });
                break;
            }
            if (sys.dsp().config().tightlyCoupled) {
                // Tightly coupled integration (Section II-D): the
                // accelerator shares the CPU cache hierarchy, so the
                // invocation is a direct enqueue — no kernel round
                // trip, no coherency flush, no session.
                task.block([system, ops, bytes, label, format](
                               Task &, BlockResume resume) {
                    system->dsp().submit(resumingJob(
                        label, ops, bytes, format, std::move(resume)));
                });
                break;
            }
            const double payload = part.inputBytes;
            task.block([system, context, ops, bytes, payload, label,
                        format](Task &, BlockResume resume) {
                AccelJob job;
                job.label = label;
                job.ops = ops;
                job.bytes = bytes;
                job.format = format;
                system->fastrpc().call(
                    context->processId(), payload, std::move(job),
                    [system, context,
                     resume](const soc::FastRpcBreakdown &breakdown,
                             const AccelJob &offloaded) {
                        if (context->rpcLog())
                            context->rpcLog()->push_back(breakdown);
                        if (!breakdown.failed) {
                            resume();
                            return;
                        }
                        // Permanent offload failure: degrade along
                        // the chain instead of dropping the frame.
                        runDegradedFallback(system, offloaded, context,
                                            resume);
                    });
            });
            break;
          }
        }
    }
    assert(task.stepCount() == steps_before + planStepCount(plan));
}

} // namespace aitax::runtime
