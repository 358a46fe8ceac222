#include "trace/render.h"

#include <algorithm>
#include <cstdio>
#include <string_view>

namespace aitax::trace {

namespace {

char
densityGlyph(double u)
{
    static const char glyphs[] = " .:-=+*#%@";
    const int levels = static_cast<int>(sizeof(glyphs)) - 2;
    int idx = static_cast<int>(u * levels + 0.5);
    idx = std::clamp(idx, 0, levels);
    return glyphs[idx];
}

} // namespace

void
renderTimeline(std::ostream &os, const Tracer &tracer, sim::TimeNs t0,
               sim::TimeNs t1, std::size_t buckets)
{
    os << "timeline " << sim::formatDuration(t1 - t0) << " ("
       << buckets << " buckets of "
       << sim::formatDuration((t1 - t0) /
                              static_cast<sim::DurationNs>(buckets))
       << ")\n";

    const auto tracks = tracer.sortedNonEmptyTracks();
    std::size_t widest = 8;
    for (TrackId id : tracks)
        widest = std::max(widest, tracer.trackName(id).size());

    for (TrackId id : tracks) {
        const std::string &name = tracer.trackName(id);
        const auto util = tracer.utilization(name, t0, t1, buckets);
        os << "  " << name;
        for (std::size_t p = name.size(); p < widest; ++p)
            os << ' ';
        os << " |";
        for (double u : util)
            os << densityGlyph(u);
        // Mean utilization for the row.
        double mean = 0.0;
        for (double u : util)
            mean += u;
        mean /= static_cast<double>(util.size());
        char buf[32];
        std::snprintf(buf, sizeof(buf), "| %5.1f%%", mean * 100.0);
        os << buf << "\n";
    }

    constexpr std::string_view axi = "axi_bytes";
    const auto rate = tracer.counterRate(axi, t0, t1, buckets);
    const double peak = *std::max_element(rate.begin(), rate.end());
    if (peak > 0.0) {
        os << "  " << axi;
        for (std::size_t p = axi.size(); p < widest; ++p)
            os << ' ';
        os << " |";
        for (double r : rate)
            os << densityGlyph(r / peak);
        char buf[48];
        std::snprintf(buf, sizeof(buf), "| peak %.1f MB/bucket",
                      peak / 1e6);
        os << buf << "\n";
    }

    os << "  context switches: " << tracer.countEvents("context_switch")
       << ", migrations: " << tracer.countEvents("migration") << "\n";
}

} // namespace aitax::trace
