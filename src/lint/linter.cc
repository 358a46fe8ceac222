#include "lint/linter.h"

#include <algorithm>
#include <cstdio>
#include <filesystem>
#include <sstream>

#include "lint/graph_rules.h"

namespace aitax::lint {

namespace {

bool
ruleSelected(const std::vector<std::string> &filter, std::string_view id)
{
    return filter.empty() ||
           std::find(filter.begin(), filter.end(), std::string(id)) !=
               filter.end();
}

/** Apply strictness filtering and suppressions to raw findings. */
void
settle(std::vector<Finding> raw, const RepoIndex *idx,
       const SuppressionSet *singleSup, bool strict, LintResult &res)
{
    for (Finding &f : raw) {
        if (f.lowConfidence && !strict)
            continue;
        const SuppressionSet *sup = singleSup;
        if (sup == nullptr && idx != nullptr) {
            const int at = idx->fileIndexOf(f.file);
            if (at >= 0)
                sup = &idx->files()[static_cast<std::size_t>(at)].sup;
        }
        if (sup != nullptr && sup->covers(f))
            ++res.suppressed;
        else
            res.findings.push_back(std::move(f));
    }
    std::stable_sort(res.findings.begin(), res.findings.end());
}

void
jsonEscape(std::ostringstream &os, std::string_view s)
{
    for (char c : s) {
        switch (c) {
          case '"':
            os << "\\\"";
            break;
          case '\\':
            os << "\\\\";
            break;
          case '\n':
            os << "\\n";
            break;
          case '\t':
            os << "\\t";
            break;
          default:
            if (static_cast<unsigned char>(c) < 0x20) {
                char buf[8];
                std::snprintf(buf, sizeof buf, "\\u%04x",
                              static_cast<unsigned>(
                                  static_cast<unsigned char>(c)));
                os << buf;
            } else {
                os << c;
            }
        }
    }
}

} // namespace

LintResult
lintSource(std::string_view virtualPath, std::string_view content,
           const std::vector<std::string> &ruleFilter)
{
    const FileRecord rec = indexSource(virtualPath, content);

    std::vector<Finding> raw;
    for (const Rule &r : allRules()) {
        if (!ruleSelected(ruleFilter, r.id))
            continue;
        r.check(rec.ctx, raw);
    }

    LintResult res;
    res.filesScanned = 1;
    settle(std::move(raw), nullptr, &rec.sup, /*strict=*/false, res);
    return res;
}

LintResult
lintRepo(const RepoIndex &idx, const LintOptions &opts)
{
    std::vector<Finding> raw;
    for (const FileRecord &rec : idx.files())
        for (const Rule &r : allRules())
            if (ruleSelected(opts.ruleFilter, r.id))
                r.check(rec.ctx, raw);

    GraphOptions gopts;
    gopts.layersPath = opts.layersPath;
    gopts.strict = opts.strict;
    for (const GraphRule &r : allGraphRules())
        if (ruleSelected(opts.ruleFilter, r.id))
            r.check(idx, gopts, raw);

    LintResult res;
    res.filesScanned = idx.files().size();
    settle(std::move(raw), &idx, nullptr, opts.strict, res);
    return res;
}

LintResult
lintTree(const std::string &root, const LintOptions &opts)
{
    namespace fs = std::filesystem;
    const RepoIndex idx = RepoIndex::build(root);
    LintOptions effective = opts;
    if (effective.layersPath.empty())
        effective.layersPath =
            (fs::path(root) / "tools" / "lint_layers.txt").string();
    return lintRepo(idx, effective);
}

std::string
formatFinding(const Finding &f, bool withHint)
{
    std::ostringstream os;
    os << f.file << ':' << f.line << ": [" << f.rule << "] "
       << f.message;
    if (withHint && !f.hint.empty())
        os << "\n    hint: " << f.hint;
    return os.str();
}

std::string
renderJson(const std::vector<Finding> &fresh, std::size_t filesScanned,
           std::size_t baselined, std::size_t suppressed,
           const std::vector<BaselineEntry> &stale)
{
    std::ostringstream os;
    os << "{\n";
    os << "  \"schema\": \"aitax-lint-report/1\",\n";
    os << "  \"files_scanned\": " << filesScanned << ",\n";
    os << "  \"counts\": {\"findings\": " << fresh.size()
       << ", \"baselined\": " << baselined
       << ", \"suppressed\": " << suppressed
       << ", \"stale_baseline\": " << stale.size() << "},\n";
    os << "  \"findings\": [";
    for (std::size_t i = 0; i < fresh.size(); ++i) {
        const Finding &f = fresh[i];
        os << (i == 0 ? "\n" : ",\n");
        os << "    {\"file\": \"";
        jsonEscape(os, f.file);
        os << "\", \"line\": " << f.line << ", \"rule\": \"";
        jsonEscape(os, f.rule);
        os << "\", \"confidence\": \""
           << (f.lowConfidence ? "low" : "normal")
           << "\", \"message\": \"";
        jsonEscape(os, f.message);
        os << "\", \"hint\": \"";
        jsonEscape(os, f.hint);
        os << "\"}";
    }
    os << (fresh.empty() ? "],\n" : "\n  ],\n");
    os << "  \"stale_baseline\": [";
    for (std::size_t i = 0; i < stale.size(); ++i) {
        const BaselineEntry &e = stale[i];
        os << (i == 0 ? "\n" : ",\n");
        os << "    {\"file\": \"";
        jsonEscape(os, e.file);
        os << "\", \"line\": " << e.line << ", \"rule\": \"";
        jsonEscape(os, e.rule);
        os << "\"}";
    }
    os << (stale.empty() ? "]\n" : "\n  ]\n");
    os << "}\n";
    return os.str();
}

} // namespace aitax::lint
