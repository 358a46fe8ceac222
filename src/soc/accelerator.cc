#include "soc/accelerator.h"

#include <algorithm>
#include <cassert>
#include <cmath>
#include <cstdio>
#include <cstdlib>

namespace aitax::soc {

namespace {

/**
 * Reject impossible rate configs at construction. An assert is not
 * enough: under NDEBUG a zero rate flows into a division and the
 * resulting inf/NaN cast to DurationNs is undefined behaviour, so
 * misconfigured chipsets must fail loudly in every build mode.
 */
void
validateAcceleratorConfig(const AcceleratorConfig &cfg)
{
    const bool any_rate = cfg.f32OpsPerSec > 0.0 ||
                          cfg.f16OpsPerSec > 0.0 ||
                          cfg.i8OpsPerSec > 0.0;
    if (!any_rate) {
        std::fprintf(stderr,
                     "aitax: accelerator '%s' has no positive ops "
                     "rate for any format\n",
                     cfg.name.c_str());
        std::abort();
    }
    if (!(cfg.memBytesPerSec > 0.0)) {
        std::fprintf(stderr,
                     "aitax: accelerator '%s' has non-positive "
                     "memBytesPerSec (%g)\n",
                     cfg.name.c_str(), cfg.memBytesPerSec);
        std::abort();
    }
    if (cfg.perJobOverheadNs < 0) {
        std::fprintf(stderr,
                     "aitax: accelerator '%s' has negative "
                     "perJobOverheadNs\n",
                     cfg.name.c_str());
        std::abort();
    }
}

} // namespace

Accelerator::Accelerator(sim::Simulator &sim, AcceleratorConfig cfg,
                         trace::Tracer &tracer, EnergyMeter *energy,
                         MemoryFabric *fabric)
    : sim(sim), cfg(std::move(cfg)), tracer(tracer), energy(energy),
      fabric(fabric)
{
    validateAcceleratorConfig(this->cfg);
    track_ = tracer.internTrack(this->cfg.name);
    axi_ = tracer.internCounter("axi_bytes");
}

double
Accelerator::opsPerSec(tensor::DType format) const
{
    switch (format) {
      case tensor::DType::Float32:
        return cfg.f32OpsPerSec;
      case tensor::DType::Float16:
        return cfg.f16OpsPerSec;
      case tensor::DType::Int8:
      case tensor::DType::UInt8:
        return cfg.i8OpsPerSec;
      default:
        return 0.0;
    }
}

bool
Accelerator::supportsFormat(tensor::DType format) const
{
    return opsPerSec(format) > 0.0;
}

sim::DurationNs
Accelerator::execDuration(double ops, double bytes,
                          tensor::DType format) const
{
    const double rate = opsPerSec(format);
    assert(rate > 0.0 && "unsupported format submitted to accelerator");
    double byte_rate = cfg.memBytesPerSec;
    if (fabric)
        byte_rate *= fabric->derateFactor();
    const double sec = std::max(ops / rate, bytes / byte_rate);
    return cfg.perJobOverheadNs +
           std::max<sim::DurationNs>(
               static_cast<sim::DurationNs>(std::ceil(sec * 1e9)), 1);
}

void
Accelerator::submit(AccelJob job)
{
    queue.push_back(std::move(job));
    if (!busy_)
        startNext();
}

void
Accelerator::startNext()
{
    assert(!busy_);
    if (queue.empty())
        return;
    busy_ = true;
    if (fabric)
        fabric->onClientChange(+1);
    current_ = std::move(queue.front());
    queue.pop_front();

    sim::DurationNs duration =
        execDuration(current_.ops, current_.bytes, current_.format);
    const sim::TimeNs start = sim.now();

    // Injected busy-hang: the job stalls on the device. Stalls that
    // reach the watchdog timeout are killed at the timeout instead of
    // completing; shorter ones simply finish late.
    bool killed = false;
    if (faults_ != nullptr) {
        const sim::DurationNs stall = faults_->drawHangStall();
        if (stall > 0) {
            const sim::DurationNs wd =
                faults_->config().watchdogTimeoutNs;
            if (wd > 0 && stall >= wd) {
                killed = true;
                duration = wd;
            } else {
                duration += stall;
            }
        }
    }

    sim.scheduleIn(duration, [this, start, killed] {
        const sim::TimeNs now = sim.now();
        if (current_.label.valid())
            tracer.recordInterval(track_, current_.label, start, now);
        const PowerDomain domain = cfg.kind == AcceleratorKind::Gpu
                                       ? PowerDomain::Gpu
                                       : PowerDomain::Dsp;
        if (killed) {
            if (faults_)
                faults_->recordWatchdogKill(now);
            // A hung job leaks static power but produced no work.
            if (energy)
                energy->addStatic(domain, now - start);
        } else {
            if (current_.bytes > 0)
                tracer.recordCounter(axi_, now, current_.bytes);
            if (energy) {
                energy->addDynamic(domain, current_.ops);
                energy->addStatic(domain, now - start);
            }
            ++completed;
        }
        busy_ = false;
        if (fabric)
            fabric->onClientChange(-1);
        // Taken out first: the callback may submit, and the next
        // dispatch reuses current_.
        AccelDoneFn done = std::move(current_.onDone);
        if (done) {
            AccelCompletion completion;
            completion.startedAt = start;
            completion.finishedAt = now;
            completion.execNs = killed ? 0 : now - start;
            completion.failed = killed;
            done(completion);
        }
        startNext();
    });
}

} // namespace aitax::soc
