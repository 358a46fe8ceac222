/**
 * @file
 * Energy accounting for the simulated SoC.
 *
 * The paper's opening motivation is that "AI processing on
 * general-purpose mobile processors is inefficient in terms of energy
 * and power". This extension meters dynamic energy per executed
 * operation and static energy per busy interval, per power domain, so
 * experiments can report joules-per-inference alongside latency.
 */

#ifndef AITAX_SOC_ENERGY_H
#define AITAX_SOC_ENERGY_H

#include <array>
#include <cassert>
#include <cstdint>
#include <string_view>

#include "sim/time.h"

namespace aitax::soc {

/** Power domains we meter. */
enum class PowerDomain
{
    BigCpu,
    LittleCpu,
    Gpu,
    Dsp,
};

constexpr std::array<PowerDomain, 4> kAllPowerDomains = {
    PowerDomain::BigCpu,
    PowerDomain::LittleCpu,
    PowerDomain::Gpu,
    PowerDomain::Dsp,
};

std::string_view powerDomainName(PowerDomain d);

/** Per-domain energy coefficients. */
struct EnergyConfig
{
    /**
     * Dynamic energy per executed operation, in picojoules.
     *
     * Defaults capture the well-known efficiency ordering on mobile
     * silicon: fixed-function DSP << GPU << little CPU < big CPU
     * (roughly an order of magnitude between DSP and big core).
     */
    double bigCpuPjPerOp = 350.0;
    double littleCpuPjPerOp = 160.0;
    double gpuPjPerOp = 80.0;
    double dspPjPerOp = 25.0;

    /** Static/leakage power while a unit is busy, in milliwatts. */
    double bigCpuStaticMw = 120.0;
    double littleCpuStaticMw = 40.0;
    double gpuStaticMw = 150.0;
    double dspStaticMw = 60.0;

    double
    pjPerOp(PowerDomain d) const
    {
        switch (d) {
          case PowerDomain::BigCpu: return bigCpuPjPerOp;
          case PowerDomain::LittleCpu: return littleCpuPjPerOp;
          case PowerDomain::Gpu: return gpuPjPerOp;
          case PowerDomain::Dsp: return dspPjPerOp;
        }
        return 0.0;
    }

    double
    staticMw(PowerDomain d) const
    {
        switch (d) {
          case PowerDomain::BigCpu: return bigCpuStaticMw;
          case PowerDomain::LittleCpu: return littleCpuStaticMw;
          case PowerDomain::Gpu: return gpuStaticMw;
          case PowerDomain::Dsp: return dspStaticMw;
        }
        return 0.0;
    }
};

/**
 * Accumulates energy per domain.
 */
class EnergyMeter
{
  public:
    explicit EnergyMeter(EnergyConfig cfg = {});

    const EnergyConfig &config() const { return cfg; }

    /** Charge dynamic energy for @p ops executed on @p domain. */
    void
    addDynamic(PowerDomain domain, double ops)
    {
        assert(ops >= 0.0);
        joules[index(domain)] += ops * cfg.pjPerOp(domain) * 1e-12;
    }

    /** Charge static energy for @p busy ns of activity. */
    void
    addStatic(PowerDomain domain, sim::DurationNs busy)
    {
        assert(busy >= 0);
        const double sec = static_cast<double>(busy) / sim::kNsPerSec;
        joules[index(domain)] += cfg.staticMw(domain) * 1e-3 * sec;
    }

    /** Total energy for one domain, in millijoules. */
    double domainMj(PowerDomain domain) const;

    /** Total energy across all domains, in millijoules. */
    double totalMj() const;

    void reset();

    /** Accumulated joules per domain, for warm-up prefix snapshots. */
    using State = std::array<double, kAllPowerDomains.size()>;

    State state() const { return joules; }
    void setState(const State &s) { joules = s; }

  private:
    EnergyConfig cfg;
    std::array<double, kAllPowerDomains.size()> joules{};

    static std::size_t
    index(PowerDomain d)
    {
        return static_cast<std::size_t>(d);
    }
};

} // namespace aitax::soc

#endif // AITAX_SOC_ENERGY_H
