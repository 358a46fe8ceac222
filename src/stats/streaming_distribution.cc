#include "stats/streaming_distribution.h"

#include "stats/numfmt.h"

#include <algorithm>
#include <cassert>
#include <cmath>
#include <cstdio>
#include <cstdlib>

namespace aitax::stats {

namespace {

/**
 * Bucket geometry, computed once. Bucket i (an absolute, possibly
 * negative index) covers values in (gamma^(i-1), gamma^i] with
 * gamma = (1+a)/(1-a); any value in the bucket is within a of the
 * bucket's representative gamma^i * 2/(1+gamma). The index range is
 * fixed by the trackable value range, so the bucket array has a fixed
 * size (~2100 entries at a=1%) — the sketch's fixed-memory bound.
 */
struct Geometry
{
    double gamma;
    double logGamma;
    double representativeScale; ///< 2 / (1 + gamma)
    int minIndex;               ///< bucket of kMinTrackable
    int maxIndex;               ///< bucket of kMaxTrackable
    std::size_t bucketCount;

    Geometry()
    {
        const double a = StreamingDistribution::kRelativeAccuracy;
        gamma = (1.0 + a) / (1.0 - a);
        logGamma = std::log(gamma);
        representativeScale = 2.0 / (1.0 + gamma);
        minIndex = static_cast<int>(std::ceil(
            std::log(StreamingDistribution::kMinTrackable) / logGamma));
        maxIndex = static_cast<int>(std::ceil(
            std::log(StreamingDistribution::kMaxTrackable) / logGamma));
        bucketCount = static_cast<std::size_t>(maxIndex - minIndex + 1);
    }
};

const Geometry &
geometry()
{
    static const Geometry g;
    return g;
}

/** Absolute bucket index for @p x, clamped to the trackable range. */
int
bucketIndex(double x)
{
    const Geometry &g = geometry();
    if (!(x > StreamingDistribution::kMinTrackable))
        return g.minIndex;
    if (x >= StreamingDistribution::kMaxTrackable)
        return g.maxIndex;
    const int i = static_cast<int>(std::ceil(std::log(x) / g.logGamma));
    return std::clamp(i, g.minIndex, g.maxIndex);
}

/** Representative value of absolute bucket @p i (mid-bucket). */
double
bucketValue(int i)
{
    const Geometry &g = geometry();
    return std::exp(g.logGamma * static_cast<double>(i)) *
           g.representativeScale;
}

} // namespace

void
StreamingDistribution::ensureBuckets()
{
    if (buckets_.empty())
        buckets_.assign(geometry().bucketCount, 0);
}

void
StreamingDistribution::add(double x)
{
    ensureBuckets();
    const std::size_t slot =
        static_cast<std::size_t>(bucketIndex(x) - geometry().minIndex);
    ++buckets_[slot];
    if (count_ == 0) {
        min_ = x;
        max_ = x;
    } else {
        min_ = std::min(min_, x);
        max_ = std::max(max_, x);
    }
    ++count_;
    sum_ += x;
    sumSq_ += x * x;
}

void
StreamingDistribution::merge(const StreamingDistribution &other)
{
    if (other.count_ == 0)
        return;
    ensureBuckets();
    assert(buckets_.size() == other.buckets_.size());
    for (std::size_t i = 0; i < buckets_.size(); ++i)
        buckets_[i] += other.buckets_[i];
    if (count_ == 0) {
        min_ = other.min_;
        max_ = other.max_;
    } else {
        min_ = std::min(min_, other.min_);
        max_ = std::max(max_, other.max_);
    }
    count_ += other.count_;
    sum_ += other.sum_;
    sumSq_ += other.sumSq_;
}

void
StreamingDistribution::reset()
{
    buckets_.clear();
    count_ = 0;
    sum_ = 0.0;
    sumSq_ = 0.0;
    min_ = 0.0;
    max_ = 0.0;
}

double
StreamingDistribution::mean() const
{
    return count_ > 0 ? sum_ / static_cast<double>(count_) : 0.0;
}

double
StreamingDistribution::stddev() const
{
    if (count_ < 2)
        return 0.0;
    const double n = static_cast<double>(count_);
    const double var = (sumSq_ - sum_ * sum_ / n) / (n - 1.0);
    return var > 0.0 ? std::sqrt(var) : 0.0;
}

double
StreamingDistribution::cv() const
{
    const double m = mean();
    return m != 0.0 ? stddev() / m : 0.0;
}

double
StreamingDistribution::min() const
{
    return count_ > 0 ? min_ : 0.0;
}

double
StreamingDistribution::max() const
{
    return count_ > 0 ? max_ : 0.0;
}

double
StreamingDistribution::percentile(double p) const
{
    if (count_ == 0)
        return 0.0;
    p = std::clamp(p, 0.0, 100.0);
    // Rank convention matches Distribution::percentile: p maps onto
    // [0, n-1]. The sketch answers with the bucket holding that rank,
    // so the rank is exact and only the value is approximated.
    const double rank =
        p / 100.0 * static_cast<double>(count_ - 1);
    const auto target = static_cast<std::uint64_t>(rank);
    std::uint64_t cum = 0;
    for (std::size_t i = 0; i < buckets_.size(); ++i) {
        cum += buckets_[i];
        if (cum > target) {
            const double v =
                bucketValue(static_cast<int>(i) + geometry().minIndex);
            // The observed extremes are exact; clamping the bucket
            // representative into [min, max] only ever reduces error.
            return std::clamp(v, min_, max_);
        }
    }
    return max_;
}

double
StreamingDistribution::maxDeviationFromMedianPct() const
{
    if (count_ == 0)
        return 0.0;
    const double med = median();
    if (med == 0.0)
        return 0.0;
    const double worst =
        std::max(std::abs(max_ - med), std::abs(min_ - med));
    return worst / med * 100.0;
}

std::string
StreamingDistribution::serialize() const
{
    char buf[128];
    std::string out = "sd1 c=";
    out += std::to_string(count_);
    if (count_ == 0)
        return out;
    // Locale-independent formatting (numfmt.h): identical bytes to the
    // historical C-locale "%.17g" regardless of LC_NUMERIC.
    out += " s=";
    appendG17(out, sum_);
    out += " q=";
    appendG17(out, sumSq_);
    out += " lo=";
    appendG17(out, min_);
    out += " hi=";
    appendG17(out, max_);
    out += " b=";
    bool first = true;
    for (std::size_t i = 0; i < buckets_.size(); ++i) {
        if (buckets_[i] == 0)
            continue;
        if (!first)
            out += ',';
        first = false;
        std::snprintf(buf, sizeof(buf), "%d:%llu",
                      static_cast<int>(i) + geometry().minIndex,
                      static_cast<unsigned long long>(buckets_[i]));
        out += buf;
    }
    return out;
}

bool
StreamingDistribution::deserialize(std::string_view text,
                                   StreamingDistribution &out,
                                   std::string *error)
{
    auto fail = [&](const char *why) {
        if (error != nullptr)
            *error = why;
        return false;
    };
    StreamingDistribution d;
    if (text.substr(0, 4) != "sd1 ")
        return fail("missing sd1 header");
    const std::string s(text.substr(4));
    const char *p = s.c_str();
    const char *const stop = p + s.size();

    // Bounded by the text left: a torn line may end inside a tag.
    auto expect = [&p, stop](std::string_view tag) {
        while (*p == ' ')
            ++p;
        if (!std::string_view(p, static_cast<std::size_t>(stop - p))
                 .starts_with(tag))
            return false;
        p += tag.size();
        return true;
    };

    if (!expect("c="))
        return fail("missing c= field");
    char *end = nullptr;
    d.count_ = std::strtoull(p, &end, 10);
    if (end == p)
        return fail("bad count");
    p = end;
    if (d.count_ == 0) {
        out = d;
        return true;
    }

    auto readDouble = [&](const char *tag, double &slot) {
        // parseDouble is locale-independent; strtod would stop at the
        // '.' under a comma-decimal LC_NUMERIC and corrupt the moment.
        return expect(tag) && parseDouble(p, slot);
    };
    if (!readDouble("s=", d.sum_) || !readDouble("q=", d.sumSq_) ||
        !readDouble("lo=", d.min_) || !readDouble("hi=", d.max_))
        return fail("bad moment field");

    if (!expect("b="))
        return fail("missing b= field");
    d.ensureBuckets();
    const Geometry &g = geometry();
    std::uint64_t total = 0;
    for (;;) {
        const long idx = std::strtol(p, &end, 10);
        if (end == p || *end != ':')
            return fail("bad bucket entry");
        p = end + 1;
        const std::uint64_t cnt = std::strtoull(p, &end, 10);
        if (end == p)
            return fail("bad bucket count");
        p = end;
        if (idx < g.minIndex || idx > g.maxIndex)
            return fail("bucket index out of range");
        d.buckets_[static_cast<std::size_t>(idx - g.minIndex)] += cnt;
        total += cnt;
        if (*p != ',')
            break;
        ++p;
    }
    if (total != d.count_)
        return fail("bucket counts disagree with c=");
    out = std::move(d);
    return true;
}

bool
StreamingDistribution::identicalTo(const StreamingDistribution &o) const
{
    if (count_ != o.count_)
        return false;
    if (count_ == 0)
        return true;
    return sum_ == o.sum_ && sumSq_ == o.sumSq_ && min_ == o.min_ &&
           max_ == o.max_ && buckets_ == o.buckets_;
}

std::string
StreamingDistribution::summary() const
{
    char buf[256];
    std::snprintf(buf, sizeof(buf),
                  "n=%llu mean=%.3f p50=%.3f p99=%.3f min=%.3f "
                  "max=%.3f cv=%.3f",
                  static_cast<unsigned long long>(count_), mean(),
                  median(), p99(), min(), max(), cv());
    return buf;
}

} // namespace aitax::stats
