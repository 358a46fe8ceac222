/**
 * @file
 * AI tax accounting: per-stage latency distributions over repeated
 * pipeline runs, and the derived tax metrics of Section IV.
 */

#ifndef AITAX_CORE_TAX_REPORT_H
#define AITAX_CORE_TAX_REPORT_H

#include <array>
#include <cstddef>
#include <cstdint>
#include <ostream>
#include <string>

#include "core/stage.h"
#include "sim/time.h"
#include "stats/distribution.h"

namespace aitax::core {

/** One run's stage latencies (virtual nanoseconds). */
struct StageLatencies
{
    std::array<sim::DurationNs, kAllStages.size()> ns{};

    sim::DurationNs &operator[](Stage s);
    sim::DurationNs operator[](Stage s) const;

    /** End-to-end latency: sum of all stages. */
    sim::DurationNs endToEnd() const;

    /** AI tax: everything but inference. */
    sim::DurationNs aiTax() const;
};

/**
 * Aggregated report over many runs of one configuration.
 */
class TaxReport
{
  public:
    TaxReport() = default;
    explicit TaxReport(std::string config_label);

    const std::string &label() const { return label_; }
    void setLabel(std::string l) { label_ = std::move(l); }

    /**
     * Size an empty report for @p runs runs (and their degraded-mode
     * column when @p degraded), so recording them never regrows a
     * sample vector. A report that already holds runs is left to grow
     * by doubling: exact steps per batch would copy it every batch.
     */
    void reserve(std::size_t runs, bool degraded);

    /** Record one run. */
    void add(const StageLatencies &run);

    /**
     * Record one run's degraded-mode overhead (retry/backoff time and
     * fallback-device execution, in ms). Only recorded under fault
     * injection; the time is *contained* in the stage walls, so this
     * is an attribution column, not an additional stage.
     */
    void addDegraded(double ms) { degraded_.add(ms); }

    std::size_t runs() const { return e2e.count(); }

    /** Distribution of a stage's latency in milliseconds. */
    const stats::Distribution &stage(Stage s) const;

    /** Distribution of end-to-end latency in milliseconds. */
    const stats::Distribution &endToEnd() const { return e2e; }

    /** Distribution of per-run AI tax in milliseconds. */
    const stats::Distribution &aiTax() const { return tax; }

    /** Per-run degraded-mode overhead (ms); empty without faults. */
    const stats::Distribution &degradedMode() const
    {
        return degraded_;
    }

    /** Mean stage latency in milliseconds. */
    double stageMeanMs(Stage s) const;

    double endToEndMeanMs() const { return e2e.mean(); }
    double aiTaxMeanMs() const { return tax.mean(); }

    /** Mean AI tax as a fraction of mean end-to-end latency (0..1). */
    double aiTaxFraction() const;

    /** Mean stage latency relative to mean inference latency. */
    double stageRelativeToInference(Stage s) const;

    /** Render a one-report breakdown table. */
    void render(std::ostream &os) const;

    /** Emit one CSV row per run with per-stage latencies (ms). */
    void renderCsv(std::ostream &os) const;

  private:
    std::string label_;
    std::array<stats::Distribution, kAllStages.size()> stages;
    stats::Distribution e2e;
    stats::Distribution tax;
    stats::Distribution degraded_;
};

} // namespace aitax::core

#endif // AITAX_CORE_TAX_REPORT_H
