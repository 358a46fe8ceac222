/**
 * @file
 * Loosely coupled accelerator model (GPU / DSP).
 *
 * A single-context FIFO server: one job executes at a time and later
 * arrivals queue — the structural property behind the paper's
 * multi-tenancy result (Fig 9: "there is only one DSP available for
 * ML model acceleration on this particular SoC").
 *
 * A job carries its trace label, not a name, and an inline completion
 * callback; the server keeps its one in-flight job as a member and
 * queues the rest in a reused ring, so a submission allocates nothing
 * once the ring has reached its depth. With one job on the device, its
 * completion is one plain simulator event, scheduled at dispatch.
 */

#ifndef AITAX_SOC_ACCELERATOR_H
#define AITAX_SOC_ACCELERATOR_H

#include <cstdint>
#include <string>

#include "faults/injector.h"
#include "sim/inline_function.h"
#include "sim/ring_queue.h"
#include "sim/simulator.h"
#include "soc/energy.h"
#include "soc/memory.h"
#include "soc/soc_config.h"
#include "tensor/dtype.h"
#include "trace/tracer.h"

namespace aitax::soc {

/**
 * What actually happened to a job, reported to its completion
 * callback. Offload accounting (FastRPC queue wait vs execution) is
 * derived from these observed times, never from durations estimated
 * at enqueue time — fabric derate can change while a job is queued.
 */
struct AccelCompletion
{
    sim::TimeNs startedAt = 0;
    sim::TimeNs finishedAt = 0;
    /** Busy time actually spent executing (0 for a watchdog kill). */
    sim::DurationNs execNs = 0;
    /** True when the watchdog killed a hung job before completion. */
    bool failed = false;
};

/** Completion callback of an accelerator job. */
using AccelDoneFn = sim::InlineFunction<void(const AccelCompletion &)>;

/** A unit of accelerator work. */
struct AccelJob
{
    /**
     * Trace label of the job's busy interval; the interval is recorded
     * only when the label is valid. Submitters resolve it once and
     * cache it (runtime::InvokeContext, trace::LazyLabel).
     */
    trace::LabelId label;
    double ops = 0.0;
    double bytes = 0.0;
    tensor::DType format = tensor::DType::Float32;
    /** Called at completion (or watchdog-kill) time. */
    AccelDoneFn onDone;
};

/**
 * FIFO accelerator server.
 */
class Accelerator
{
  public:
    Accelerator(sim::Simulator &sim, AcceleratorConfig cfg,
                trace::Tracer &tracer, EnergyMeter *energy = nullptr,
                MemoryFabric *fabric = nullptr);

    Accelerator(const Accelerator &) = delete;
    Accelerator &operator=(const Accelerator &) = delete;

    const AcceleratorConfig &config() const { return cfg; }
    const std::string &name() const { return cfg.name; }

    /** True if the device can execute the format natively. */
    bool supportsFormat(tensor::DType format) const;

    /** Execution time for a job, excluding queueing. */
    sim::DurationNs execDuration(double ops, double bytes,
                                 tensor::DType format) const;

    /** Enqueue a job; onDone fires when it completes. */
    void submit(AccelJob job);

    /**
     * Attach a fault injector: each dispatched job may draw an
     * injected busy-hang stall; stalls reaching the watchdog timeout
     * kill the job (completion.failed). Null detaches.
     */
    void setFaultInjector(faults::FaultInjector *injector)
    {
        faults_ = injector;
    }

    bool busy() const { return busy_; }
    std::size_t queueDepth() const { return queue.size(); }
    std::int64_t jobsCompleted() const { return completed; }

  private:
    sim::Simulator &sim;
    AcceleratorConfig cfg;
    trace::Tracer &tracer;
    EnergyMeter *energy;
    MemoryFabric *fabric;
    faults::FaultInjector *faults_ = nullptr;
    sim::RingQueue<AccelJob> queue;
    /** The job on the device; valid while busy_. */
    AccelJob current_;
    bool busy_ = false;
    std::int64_t completed = 0;
    trace::TrackId track_;
    trace::CounterId axi_;

    double opsPerSec(tensor::DType format) const;
    void startNext();
};

} // namespace aitax::soc

#endif // AITAX_SOC_ACCELERATOR_H
