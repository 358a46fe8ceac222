#include "verify/golden.h"

#include <cctype>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <limits>
#include <sstream>

namespace aitax::verify {

namespace {

constexpr int kSchemaVersion = 1;

/** Round-trip-exact double literal. */
std::string
numberToken(double v)
{
    char buf[64];
    std::snprintf(buf, sizeof buf, "%.17g", v);
    return buf;
}

std::string
metricKey(core::Stage s)
{
    std::string key = "stage_";
    for (char c : core::stageName(s))
        key += c == '-' ? '_' : c;
    return key + "_mean_ms";
}

/** Minimal cursor over the snapshot's JSON subset. */
struct Cursor
{
    const std::string &text;
    std::size_t pos = 0;
    std::string error;

    void
    skipWs()
    {
        while (pos < text.size() &&
               std::isspace(static_cast<unsigned char>(text[pos])))
            ++pos;
    }

    bool
    fail(const std::string &msg)
    {
        error = msg + " at offset " + std::to_string(pos);
        return false;
    }

    bool
    expect(char c)
    {
        skipWs();
        if (pos >= text.size() || text[pos] != c)
            return fail(std::string("expected '") + c + "'");
        ++pos;
        return true;
    }

    bool
    parseString(std::string &out)
    {
        skipWs();
        if (pos >= text.size() || text[pos] != '"')
            return fail("expected string");
        ++pos;
        out.clear();
        while (pos < text.size() && text[pos] != '"') {
            if (text[pos] == '\\') {
                ++pos;
                if (pos >= text.size())
                    return fail("bad escape");
            }
            out += text[pos++];
        }
        if (pos >= text.size())
            return fail("unterminated string");
        ++pos;
        return true;
    }

    bool
    parseNumber(double &out)
    {
        skipWs();
        const char *start = text.c_str() + pos;
        char *end = nullptr;
        out = std::strtod(start, &end);
        if (end == start)
            return fail("expected number");
        pos += static_cast<std::size_t>(end - start);
        return true;
    }
};

} // namespace

GoldenSnapshot
snapshot(const Scenario &s, const ScenarioResult &result)
{
    GoldenSnapshot g;
    g.scenario = s.label();
    const auto &r = result.report;

    g.metrics["runs"] = static_cast<double>(r.runs());
    for (core::Stage st : core::kAllStages)
        g.metrics[metricKey(st)] = r.stageMeanMs(st);
    g.metrics["e2e_mean_ms"] = r.endToEndMeanMs();
    g.metrics["e2e_p50_ms"] = r.endToEnd().median();
    g.metrics["e2e_p95_ms"] = r.endToEnd().p95();
    g.metrics["tax_mean_ms"] = r.aiTaxMeanMs();
    g.metrics["tax_fraction"] = r.aiTaxFraction();

    g.metrics["rpc_calls"] = static_cast<double>(result.rpcLog.size());
    double overhead_ns = 0.0;
    for (const auto &call : result.rpcLog)
        overhead_ns += static_cast<double>(call.overheadNs());
    g.metrics["rpc_overhead_total_ms"] = overhead_ns / 1e6;

    g.metrics["energy_mj"] = result.energyMj;
    g.metrics["end_time_ms"] = sim::nsToMs(result.endTimeNs);
    g.metrics["background_inferences"] =
        static_cast<double>(result.backgroundInferences);
    return g;
}

std::string
toJson(const GoldenSnapshot &g)
{
    std::ostringstream os;
    os << "{\n";
    os << "  \"schema\": " << kSchemaVersion << ",\n";
    os << "  \"scenario\": \"" << g.scenario << "\",\n";
    os << "  \"metrics\": {\n";
    std::size_t i = 0;
    for (const auto &[key, value] : g.metrics) {
        os << "    \"" << key << "\": " << numberToken(value);
        if (++i < g.metrics.size())
            os << ",";
        os << "\n";
    }
    os << "  }\n";
    os << "}\n";
    return os.str();
}

bool
fromJson(const std::string &text, GoldenSnapshot &out, std::string &error)
{
    Cursor c{text, 0, {}};
    out = GoldenSnapshot{};
    double schema = 0.0;
    bool saw_schema = false;

    auto propagate = [&] {
        error = c.error;
        return false;
    };

    if (!c.expect('{'))
        return propagate();
    for (;;) {
        std::string key;
        if (!c.parseString(key) || !c.expect(':'))
            return propagate();
        if (key == "schema") {
            if (!c.parseNumber(schema))
                return propagate();
            saw_schema = true;
        } else if (key == "scenario") {
            if (!c.parseString(out.scenario))
                return propagate();
        } else if (key == "metrics") {
            if (!c.expect('{'))
                return propagate();
            c.skipWs();
            if (c.pos < text.size() && text[c.pos] == '}') {
                ++c.pos;
            } else {
                for (;;) {
                    std::string mkey;
                    double mval = 0.0;
                    if (!c.parseString(mkey) || !c.expect(':') ||
                        !c.parseNumber(mval))
                        return propagate();
                    out.metrics[mkey] = mval;
                    c.skipWs();
                    if (c.pos < text.size() && text[c.pos] == ',') {
                        ++c.pos;
                        continue;
                    }
                    break;
                }
                if (!c.expect('}'))
                    return propagate();
            }
        } else {
            error = "unknown key '" + key + "'";
            return false;
        }
        c.skipWs();
        if (c.pos < text.size() && text[c.pos] == ',') {
            ++c.pos;
            continue;
        }
        break;
    }
    if (!c.expect('}'))
        return propagate();
    if (!saw_schema || schema != kSchemaVersion) {
        error = "unsupported golden schema " + std::to_string(schema);
        return false;
    }
    if (out.scenario.empty()) {
        error = "snapshot has no scenario label";
        return false;
    }
    error.clear();
    return true;
}

std::vector<GoldenDiff>
compare(const GoldenSnapshot &expected, const GoldenSnapshot &actual,
        const CompareOptions &opts)
{
    std::vector<GoldenDiff> diffs;
    const double inf = std::numeric_limits<double>::infinity();

    for (const auto &[key, want] : expected.metrics) {
        const auto it = actual.metrics.find(key);
        if (it == actual.metrics.end()) {
            diffs.push_back({key, want, 0.0, inf});
            continue;
        }
        const double got = it->second;
        const double delta = std::abs(got - want);
        if (delta <= opts.absFloor)
            continue;
        const double rel =
            delta / std::max(std::abs(want), opts.absFloor);
        const auto tol_it = opts.perMetricTol.find(key);
        const double tol =
            tol_it != opts.perMetricTol.end() ? tol_it->second : opts.relTol;
        if (rel > tol)
            diffs.push_back({key, want, got, rel});
    }
    for (const auto &[key, got] : actual.metrics) {
        if (expected.metrics.find(key) == expected.metrics.end())
            diffs.push_back({key, 0.0, got, inf});
    }
    return diffs;
}

std::string
goldenFileName(const Scenario &s)
{
    return s.label() + ".json";
}

bool
writeGoldenFile(const std::string &path, const GoldenSnapshot &g)
{
    std::ofstream out(path, std::ios::binary | std::ios::trunc);
    if (!out)
        return false;
    out << toJson(g);
    out.close();
    return static_cast<bool>(out);
}

bool
readGoldenFile(const std::string &path, GoldenSnapshot &out,
               std::string &error)
{
    std::ifstream in(path, std::ios::binary);
    if (!in) {
        error = "cannot open " + path;
        return false;
    }
    std::ostringstream buf;
    buf << in.rdbuf();
    return fromJson(buf.str(), out, error);
}

const std::vector<Scenario> &
goldenScenarios()
{
    using app::FrameworkKind;
    using app::HarnessMode;
    using tensor::DType;

    static const std::vector<Scenario> scenarios = [] {
        std::vector<Scenario> v;
        auto add = [&](const std::string &model, const std::string &soc,
                       DType dtype, FrameworkKind fw, HarnessMode mode,
                       int runs, std::uint64_t seed, int dsp_load = 0,
                       int cpu_load = 0) {
            Scenario s;
            s.modelId = model;
            s.socName = soc;
            s.dtype = dtype;
            s.framework = fw;
            s.mode = mode;
            s.runs = runs;
            s.seed = seed;
            s.dspLoadProcesses = dsp_load;
            s.cpuLoadProcesses = cpu_load;
            v.push_back(std::move(s));
        };

        // Ten Table I models across all four Table II chipsets, every
        // harness mode and every framework path.
        add("mobilenet_v1", "Snapdragon 845", DType::UInt8,
            FrameworkKind::TfliteHexagon, HarnessMode::AndroidApp, 12,
            101);
        add("mobilenet_v1", "Snapdragon 835", DType::Float32,
            FrameworkKind::TfliteCpu, HarnessMode::CliBenchmark, 12, 102);
        add("inception_v3", "Snapdragon 855", DType::Float32,
            FrameworkKind::TfliteGpu, HarnessMode::BenchmarkApp, 10, 103);
        add("inception_v4", "Snapdragon 865", DType::UInt8,
            FrameworkKind::SnpeDsp, HarnessMode::AndroidApp, 10, 104);
        add("efficientnet_lite0", "Snapdragon 845", DType::UInt8,
            FrameworkKind::TfliteNnapi, HarnessMode::AndroidApp, 12, 105);
        add("squeezenet", "Snapdragon 835", DType::Float32,
            FrameworkKind::TfliteNnapi, HarnessMode::CliBenchmark, 12,
            106);
        add("deeplab_v3", "Snapdragon 855", DType::Float32,
            FrameworkKind::TfliteCpu, HarnessMode::AndroidApp, 8, 107);
        add("ssd_mobilenet_v2", "Snapdragon 865", DType::UInt8,
            FrameworkKind::TfliteHexagon, HarnessMode::AndroidApp, 10,
            108);
        add("posenet", "Snapdragon 845", DType::Float32,
            FrameworkKind::TfliteGpu, HarnessMode::AndroidApp, 8, 109);
        add("mobile_bert", "Snapdragon 855", DType::Float32,
            FrameworkKind::TfliteCpu, HarnessMode::CliBenchmark, 6, 110);
        add("alexnet", "Snapdragon 835", DType::UInt8,
            FrameworkKind::TfliteCpu, HarnessMode::BenchmarkApp, 10, 111);
        // Multi-tenancy snapshots: DSP and CPU contention.
        add("mobilenet_v1", "Snapdragon 845", DType::UInt8,
            FrameworkKind::SnpeDsp, HarnessMode::AndroidApp, 10, 112, 2,
            0);
        add("inception_v3", "Snapdragon 865", DType::Float32,
            FrameworkKind::TfliteCpu, HarnessMode::AndroidApp, 8, 113, 0,
            2);
        return v;
    }();
    return scenarios;
}

} // namespace aitax::verify
