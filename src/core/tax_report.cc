#include "core/tax_report.h"

#include <cassert>

#include "stats/table.h"

namespace aitax::core {

namespace {

constexpr std::size_t
stageIndex(Stage s)
{
    return static_cast<std::size_t>(s);
}

} // namespace

sim::DurationNs &
StageLatencies::operator[](Stage s)
{
    return ns[stageIndex(s)];
}

sim::DurationNs
StageLatencies::operator[](Stage s) const
{
    return ns[stageIndex(s)];
}

sim::DurationNs
StageLatencies::endToEnd() const
{
    sim::DurationNs total = 0;
    for (auto v : ns)
        total += v;
    return total;
}

sim::DurationNs
StageLatencies::aiTax() const
{
    return endToEnd() - (*this)[Stage::Inference];
}

TaxReport::TaxReport(std::string config_label)
    : label_(std::move(config_label))
{
}

void
TaxReport::reserve(std::size_t runs, bool degraded)
{
    if (this->runs() != 0)
        return;
    for (auto &stage : stages)
        stage.reserve(runs);
    e2e.reserve(runs);
    tax.reserve(runs);
    if (degraded)
        degraded_.reserve(runs);
}

void
TaxReport::add(const StageLatencies &run)
{
    for (Stage s : kAllStages)
        stages[stageIndex(s)].add(sim::nsToMs(run[s]));
    e2e.add(sim::nsToMs(run.endToEnd()));
    tax.add(sim::nsToMs(run.aiTax()));
}

const stats::Distribution &
TaxReport::stage(Stage s) const
{
    return stages[stageIndex(s)];
}

double
TaxReport::stageMeanMs(Stage s) const
{
    return stages[stageIndex(s)].mean();
}

double
TaxReport::aiTaxFraction() const
{
    const double total = e2e.mean();
    if (total <= 0.0)
        return 0.0;
    return tax.mean() / total;
}

double
TaxReport::stageRelativeToInference(Stage s) const
{
    const double inf = stageMeanMs(Stage::Inference);
    if (inf <= 0.0)
        return 0.0;
    return stageMeanMs(s) / inf;
}

void
TaxReport::render(std::ostream &os) const
{
    os << "AI tax report: " << label_ << " (" << runs() << " runs)\n";
    stats::Table table({"stage", "mean ms", "median ms", "p95 ms",
                        "share of E2E", "vs inference"});
    const double total = endToEndMeanMs();
    for (Stage s : kAllStages) {
        const auto &d = stage(s);
        table.addRow({std::string(stageName(s)),
                      stats::Table::num(d.mean()),
                      stats::Table::num(d.median()),
                      stats::Table::num(d.p95()),
                      stats::Table::pct(total > 0
                                            ? d.mean() / total * 100.0
                                            : 0.0),
                      stats::Table::num(stageRelativeToInference(s))});
    }
    table.addRow({"end-to-end", stats::Table::num(e2e.mean()),
                  stats::Table::num(e2e.median()),
                  stats::Table::num(e2e.p95()), "100.0%", "-"});
    table.addRow({"AI tax", stats::Table::num(tax.mean()),
                  stats::Table::num(tax.median()),
                  stats::Table::num(tax.p95()),
                  stats::Table::pct(aiTaxFraction() * 100.0), "-"});
    // Degraded-mode column appears only for fault-injected runs, so
    // plain reports render exactly as before.
    if (degraded_.count() > 0) {
        table.addRow(
            {"degraded mode", stats::Table::num(degraded_.mean()),
             stats::Table::num(degraded_.median()),
             stats::Table::num(degraded_.p95()),
             stats::Table::pct(total > 0
                                   ? degraded_.mean() / total * 100.0
                                   : 0.0),
             "-"});
    }
    table.render(os);
}

void
TaxReport::renderCsv(std::ostream &os) const
{
    os << "run";
    for (Stage s : kAllStages)
        os << "," << stageName(s) << "_ms";
    os << ",e2e_ms,ai_tax_ms\n";
    const std::size_t n = e2e.count();
    for (std::size_t i = 0; i < n; ++i) {
        os << i;
        for (Stage s : kAllStages)
            os << "," << stage(s).raw()[i];
        os << "," << e2e.raw()[i] << "," << tax.raw()[i] << "\n";
    }
}

} // namespace aitax::core
