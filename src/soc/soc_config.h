/**
 * @file
 * Configuration structs describing a mobile SoC: CPU cluster, GPU,
 * DSP, FastRPC channel, memory fabric and thermal envelope.
 *
 * Throughput figures are *effective* rates for NN-style kernels (i.e.
 * they fold in typical kernel efficiency), calibrated so the SD845
 * preset lands in the latency ranges the paper reports.
 */

#ifndef AITAX_SOC_SOC_CONFIG_H
#define AITAX_SOC_SOC_CONFIG_H

#include <cstdint>
#include <string>
#include <vector>

#include "sim/time.h"
#include "soc/dvfs.h"
#include "soc/memory.h"

namespace aitax::soc {

/** Work classes map to different core throughputs. */
enum class WorkClass
{
    Scalar,  ///< branchy supporting code (capture glue, decode)
    VectorF32, ///< NEON fp32 NN kernels
    VectorI8,  ///< NEON int8 NN kernels
};

/** One CPU core. */
struct CpuCoreConfig
{
    std::string name = "core";
    double freqGhz = 2.0;
    bool big = true;
    /** Effective ops per cycle by work class. */
    double scalarOpsPerCycle = 1.2;
    double f32OpsPerCycle = 4.0;
    double i8OpsPerCycle = 8.0;
    /** Sustained memory bandwidth for this core's streams. */
    double memBytesPerSec = 6.0e9;

    double opsPerCycle(WorkClass cls) const;
};

/** The CPU complex plus OS scheduler parameters. */
struct CpuClusterConfig
{
    std::vector<CpuCoreConfig> cores;
    sim::DurationNs timeSliceNs = sim::msToNs(4.0);
    sim::DurationNs contextSwitchNs = sim::usToNs(5.0);
    /** Cache-warmup penalty applied when a task changes cores. */
    sim::DurationNs migrationNs = sim::usToNs(30.0);
    /**
     * Probability, per expired time slice, that the kernel's load
     * balancer moves a lone task to another idle core of the same
     * tier — the source of the "frequent CPU migrations" the paper
     * observes in Fig 6.
     */
    double loadBalanceProb = 0.12;
};

/** Kinds of loosely coupled accelerators. */
enum class AcceleratorKind
{
    Gpu,
    Dsp,
};

/** An on-chip accelerator (own queue; see `tightlyCoupled`). */
struct AcceleratorConfig
{
    std::string name = "accel";
    AcceleratorKind kind = AcceleratorKind::Dsp;
    /**
     * Integration model (Section II-D of the paper): loosely coupled
     * accelerators (the Snapdragon DSPs, the default) sit behind a
     * kernel driver — every invocation crosses FastRPC with a cache
     * flush. A tightly coupled accelerator shares the CPU's cache
     * hierarchy: invocations skip the kernel round trip entirely.
     */
    bool tightlyCoupled = false;
    /** Effective ops/s by numeric format; 0 = unsupported natively. */
    double f32OpsPerSec = 0.0;
    double f16OpsPerSec = 0.0;
    double i8OpsPerSec = 0.0;
    double memBytesPerSec = 10.0e9;
    /** Fixed dispatch overhead added to every job. */
    sim::DurationNs perJobOverheadNs = sim::usToNs(50.0);
};

/** FastRPC channel parameters (Fig 7 stages). */
struct FastRpcConfig
{
    /** One-time session open: process mapping, library load. */
    sim::DurationNs sessionOpenNs = sim::msToNs(15.0);
    sim::DurationNs userToKernelNs = sim::usToNs(30.0);
    /** Kernel driver signalling the DSP-side driver. */
    sim::DurationNs kernelSignalNs = sim::usToNs(20.0);
    /** Cache flush for coherency, proportional to payload bytes. */
    double cacheFlushBytesPerSec = 8.0e9;
    /** Return path (DSP driver -> kernel -> user). */
    sim::DurationNs returnPathNs = sim::usToNs(50.0);
};

/** Shared memory fabric. */
struct MemoryConfig
{
    double axiBytesPerSec = 20.0e9;
};

/** Thermal throttling envelope (simple RC model). */
struct ThermalConfig
{
    bool enabled = false;
    /** Heat units added per core-second of busy big-core time. */
    double heatPerBusySec = 1.0;
    /** Exponential cooling time constant. */
    double coolingTauSec = 10.0;
    /** Heat level at which throttling starts. */
    double throttleThreshold = 2.0;
    /** Clock multiplier when fully throttled. */
    double throttledFactor = 0.7;
};

/** A full SoC platform (one Table II row). */
struct SocConfig
{
    std::string name;    ///< e.g. "Google Pixel 3"
    std::string socName; ///< e.g. "Snapdragon 845"
    CpuClusterConfig cluster;
    AcceleratorConfig gpu;
    AcceleratorConfig dsp;
    FastRpcConfig fastrpc;
    MemoryConfig memory;
    MemoryFabricConfig fabric;
    ThermalConfig thermal;
    DvfsConfig dvfs;
};

} // namespace aitax::soc

#endif // AITAX_SOC_SOC_CONFIG_H
