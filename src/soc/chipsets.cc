#include "soc/chipsets.h"

#include <cassert>
#include <cstdio>
#include <cstdlib>

namespace aitax::soc {

namespace {

/**
 * Build a Snapdragon-style 4+4 configuration.
 *
 * @param perf overall generational scale factor (1.0 = SD845).
 */
SocConfig
makeSnapdragon(const std::string &system, const std::string &soc,
               const std::string &gpu_name, const std::string &dsp_name,
               double big_ghz, double little_ghz, double perf)
{
    SocConfig cfg;
    cfg.name = system;
    cfg.socName = soc;

    for (int i = 0; i < 4; ++i) {
        CpuCoreConfig core;
        core.name = "cpu" + std::to_string(i);
        core.big = false;
        core.freqGhz = little_ghz;
        core.scalarOpsPerCycle = 0.9;
        core.f32OpsPerCycle = 1.8;
        core.i8OpsPerCycle = 3.0;
        core.memBytesPerSec = 3.0e9 * perf;
        cfg.cluster.cores.push_back(core);
    }
    for (int i = 4; i < 8; ++i) {
        CpuCoreConfig core;
        core.name = "cpu" + std::to_string(i);
        core.big = true;
        core.freqGhz = big_ghz;
        core.scalarOpsPerCycle = 1.3;
        core.f32OpsPerCycle = 4.8;
        core.i8OpsPerCycle = 8.0;
        core.memBytesPerSec = 6.5e9 * perf;
        cfg.cluster.cores.push_back(core);
    }

    cfg.gpu.name = gpu_name;
    cfg.gpu.kind = AcceleratorKind::Gpu;
    cfg.gpu.f32OpsPerSec = 80.0e9 * perf;
    cfg.gpu.f16OpsPerSec = 160.0e9 * perf;
    cfg.gpu.i8OpsPerSec = 160.0e9 * perf;
    cfg.gpu.memBytesPerSec = 14.0e9 * perf;
    cfg.gpu.perJobOverheadNs = sim::msToNs(1.2);

    cfg.dsp.name = dsp_name;
    cfg.dsp.kind = AcceleratorKind::Dsp;
    // HVX is a fixed-point vector engine: no native fp32; fp16 runs at
    // a fraction of the int8 rate.
    cfg.dsp.f32OpsPerSec = 0.0;
    cfg.dsp.f16OpsPerSec = 30.0e9 * perf;
    cfg.dsp.i8OpsPerSec = 110.0e9 * perf;
    cfg.dsp.memBytesPerSec = 12.0e9 * perf;
    cfg.dsp.perJobOverheadNs = sim::usToNs(80.0);

    cfg.memory.axiBytesPerSec = 20.0e9 * perf;
    return cfg;
}

} // namespace

SocConfig
makeSnapdragon835()
{
    return makeSnapdragon("Open-Q 835 uSOM", "Snapdragon 835",
                          "Adreno 540", "Hexagon 682", 2.45, 1.90, 0.72);
}

SocConfig
makeSnapdragon845()
{
    return makeSnapdragon("Google Pixel 3", "Snapdragon 845",
                          "Adreno 630", "Hexagon 685", 2.80, 1.77, 1.0);
}

SocConfig
makeSnapdragon855()
{
    return makeSnapdragon("Snapdragon 855 HDK", "Snapdragon 855",
                          "Adreno 640", "Hexagon 690", 2.84, 1.78, 1.35);
}

SocConfig
makeSnapdragon865()
{
    return makeSnapdragon("Snapdragon 865 HDK", "Snapdragon 865",
                          "Adreno 650", "Hexagon 698", 2.84, 1.80, 1.75);
}

const std::vector<SocConfig> &
allPlatforms()
{
    static const std::vector<SocConfig> table = {
        makeSnapdragon835(), makeSnapdragon845(), makeSnapdragon855(),
        makeSnapdragon865()};
    return table;
}

const SocConfig *
findPlatform(std::string_view soc_name)
{
    for (const auto &cfg : allPlatforms())
        if (cfg.socName == soc_name)
            return &cfg;
    return nullptr;
}

const SocConfig &
platformByName(std::string_view soc_name)
{
    const SocConfig *cfg = findPlatform(soc_name);
    if (cfg == nullptr) {
        std::fprintf(stderr, "unknown platform: %.*s\n",
                     static_cast<int>(soc_name.size()), soc_name.data());
        std::abort();
    }
    return *cfg;
}

} // namespace aitax::soc
