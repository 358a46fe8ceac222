#include "soc/energy.h"

namespace aitax::soc {

std::string_view
powerDomainName(PowerDomain d)
{
    switch (d) {
      case PowerDomain::BigCpu: return "big-cpu";
      case PowerDomain::LittleCpu: return "little-cpu";
      case PowerDomain::Gpu: return "gpu";
      case PowerDomain::Dsp: return "dsp";
    }
    return "unknown";
}

EnergyMeter::EnergyMeter(EnergyConfig cfg)
    : cfg(cfg)
{
}

double
EnergyMeter::domainMj(PowerDomain domain) const
{
    return joules[index(domain)] * 1e3;
}

double
EnergyMeter::totalMj() const
{
    double total = 0.0;
    for (double j : joules)
        total += j;
    return total * 1e3;
}

void
EnergyMeter::reset()
{
    joules.fill(0.0);
}

} // namespace aitax::soc
