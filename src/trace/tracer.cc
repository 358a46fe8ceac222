#include "trace/tracer.h"

#include <algorithm>
#include <cassert>

namespace aitax::trace {

std::uint32_t
Tracer::intern(InternMap &map, std::vector<std::string> &names,
               std::string_view name)
{
    if (auto it = map.find(name); it != map.end())
        return it->second;
    const auto id = static_cast<std::uint32_t>(names.size());
    names.emplace_back(name);
    map.emplace(names.back(), id);
    return id;
}

std::uint32_t
Tracer::find(const InternMap &map, std::string_view name)
{
    const auto it = map.find(name);
    return it == map.end() ? kInvalidTraceId : it->second;
}

TrackId
Tracer::internTrack(std::string_view name)
{
    AITAX_AUDIT_OWNER(owner_, "Tracer");
    const std::uint32_t id = intern(trackIds_, trackNames_, name);
    if (id == tracks_.size()) {
        tracks_.emplace_back(arena_);
        // Keep tracksByName_ sorted; interning is construction-time
        // rare, so an ordered insert is fine.
        const auto pos = std::lower_bound(
            tracksByName_.begin(), tracksByName_.end(), name,
            [this](TrackId t, std::string_view n) {
                return trackNames_[t.value] < n;
            });
        tracksByName_.insert(pos, TrackId{id});
    }
    return TrackId{id};
}

LabelId
Tracer::internLabel(std::string_view name)
{
    AITAX_AUDIT_OWNER(owner_, "Tracer");
    return LabelId{intern(labelIds_, labelNames_, name)};
}

EventKindId
Tracer::internEventKind(std::string_view kind)
{
    AITAX_AUDIT_OWNER(owner_, "Tracer");
    const std::uint32_t id = intern(kindIds_, kindNames_, kind);
    if (id == kindCounts_.size())
        kindCounts_.push_back(0);
    return EventKindId{id};
}

CounterId
Tracer::internCounter(std::string_view name)
{
    AITAX_AUDIT_OWNER(owner_, "Tracer");
    const std::uint32_t id = intern(counterIds_, counterNames_, name);
    if (id == counters_.size())
        counters_.emplace_back(arena_);
    return CounterId{id};
}

TrackId
Tracer::findTrack(std::string_view name) const
{
    return TrackId{find(trackIds_, name)};
}

CounterId
Tracer::findCounter(std::string_view name) const
{
    return CounterId{find(counterIds_, name)};
}

EventKindId
Tracer::findEventKind(std::string_view kind) const
{
    return EventKindId{find(kindIds_, kind)};
}

void
Tracer::clear()
{
    for (auto &t : tracks_) {
        t.labels.clear();
        t.begins.clear();
        t.ends.clear();
    }
    events_.kinds.clear();
    events_.details.clear();
    events_.whens.clear();
    std::fill(kindCounts_.begin(), kindCounts_.end(), 0);
    for (auto &c : counters_) {
        c.whens.clear();
        c.values.clear();
    }
}

void
Tracer::cloneFrom(const Tracer &src)
{
    AITAX_AUDIT_OWNER(owner_, "Tracer");
    enabled = src.enabled;
    // Stores are assigned element-wise so existing (and newly grown)
    // entries keep THIS tracer's allocator: cloning an arena-backed
    // tracer from a heap snapshot must land the data back in the
    // arena, and a heap snapshot cloning from an arena-backed tracer
    // must not capture arena pointers that die at the next reset.
    while (tracks_.size() < src.tracks_.size())
        tracks_.emplace_back(arena_);
    tracks_.resize(src.tracks_.size());
    for (std::size_t i = 0; i < tracks_.size(); ++i)
        tracks_[i] = src.tracks_[i];
    trackNames_ = src.trackNames_;
    tracksByName_ = src.tracksByName_;
    trackIds_ = src.trackIds_;
    labelNames_ = src.labelNames_;
    labelIds_ = src.labelIds_;
    events_ = src.events_;
    kindNames_ = src.kindNames_;
    kindCounts_ = src.kindCounts_;
    kindIds_ = src.kindIds_;
    while (counters_.size() < src.counters_.size())
        counters_.emplace_back(arena_);
    counters_.resize(src.counters_.size());
    for (std::size_t i = 0; i < counters_.size(); ++i)
        counters_[i] = src.counters_[i];
    counterNames_ = src.counterNames_;
    counterIds_ = src.counterIds_;
}

std::vector<TrackId>
Tracer::sortedNonEmptyTracks() const
{
    std::vector<TrackId> out;
    out.reserve(tracksByName_.size());
    for (TrackId id : tracksByName_)
        if (!tracks_[id.value].empty())
            out.push_back(id);
    return out;
}

std::size_t
Tracer::intervalCount() const
{
    std::size_t n = 0;
    for (const auto &t : tracks_)
        n += t.size();
    return n;
}

std::size_t
Tracer::counterSampleCount() const
{
    std::size_t n = 0;
    for (const auto &c : counters_)
        n += c.size();
    return n;
}

std::int64_t
Tracer::countEvents(std::string_view kind) const
{
    const EventKindId id = findEventKind(kind);
    return id.valid() ? kindCounts_[id.value] : 0;
}

std::vector<double>
Tracer::utilization(std::string_view track, sim::TimeNs t0,
                    sim::TimeNs t1, std::size_t buckets) const
{
    assert(t1 > t0 && buckets > 0);
    std::vector<double> out(buckets, 0.0);
    const TrackId id = findTrack(track);
    if (!id.valid())
        return out;
    const TrackStore &ts = tracks_[id.value];

    const double span = static_cast<double>(t1 - t0);
    const double bucket_ns = span / static_cast<double>(buckets);
    const double t0d = static_cast<double>(t0);

    // Partial coverage of an interval's first/last bucket is added
    // directly; the fully covered buckets between them contribute
    // exactly 1.0 each, accumulated as a difference array and resolved
    // with one prefix-sum pass. O(1) per interval instead of the old
    // O(buckets-spanned) inner overlap loop.
    std::vector<double> full(buckets + 1, 0.0);
    for (std::size_t i = 0; i < ts.size(); ++i) {
        const sim::TimeNs b = std::max(ts.begins[i], t0);
        const sim::TimeNs e = std::min(ts.ends[i], t1);
        if (e <= b)
            continue;
        auto first = static_cast<std::size_t>(
            static_cast<double>(b - t0) / bucket_ns);
        auto last = static_cast<std::size_t>(
            static_cast<double>(e - 1 - t0) / bucket_ns);
        first = std::min(first, buckets - 1);
        last = std::min(last, buckets - 1);
        if (first == last) {
            out[first] += static_cast<double>(e - b) / bucket_ns;
            continue;
        }
        const double first_end =
            t0d + static_cast<double>(first + 1) * bucket_ns;
        out[first] += (first_end - static_cast<double>(b)) / bucket_ns;
        const double last_begin =
            t0d + static_cast<double>(last) * bucket_ns;
        out[last] += (static_cast<double>(e) - last_begin) / bucket_ns;
        if (last > first + 1) {
            full[first + 1] += 1.0;
            full[last] -= 1.0;
        }
    }
    double covered = 0.0;
    for (std::size_t k = 0; k < buckets; ++k) {
        covered += full[k];
        out[k] = std::min(out[k] + covered, 1.0);
    }
    return out;
}

std::vector<double>
Tracer::counterRate(std::string_view name, sim::TimeNs t0,
                    sim::TimeNs t1, std::size_t buckets) const
{
    assert(t1 > t0 && buckets > 0);
    std::vector<double> out(buckets, 0.0);
    const CounterId id = findCounter(name);
    if (!id.valid())
        return out;
    const CounterStore &c = counters_[id.value];

    const double span = static_cast<double>(t1 - t0);
    const double bucket_ns = span / static_cast<double>(buckets);
    for (std::size_t i = 0; i < c.size(); ++i) {
        const sim::TimeNs when = c.whens[i];
        if (when < t0 || when >= t1)
            continue;
        auto k = static_cast<std::size_t>(
            static_cast<double>(when - t0) / bucket_ns);
        k = std::min(k, buckets - 1);
        out[k] += c.values[i];
    }
    return out;
}

} // namespace aitax::trace
