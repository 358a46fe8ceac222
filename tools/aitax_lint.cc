/**
 * @file
 * aitax-lint CLI — determinism-and-hygiene static analysis for this
 * repository. See docs/LINTING.md for the rule catalogue.
 *
 * Pass 1 tokenizes every file under src//tools//bench/ once into a
 * RepoIndex; pass 2 runs the file-local rules per file plus the
 * cross-file rules (layering, taint-clock, taint-random, header
 * self-containment) over the index.
 *
 * Exit status: 0 when clean under the active mode, 1 when findings
 * (or, with --strict, stale baseline entries) remain, 2 on usage or
 * I/O errors.
 */

#include <cstdio>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <string>
#include <vector>

#include "lint/baseline.h"
#include "lint/graph_rules.h"
#include "lint/linter.h"
#include "lint/taint.h"

namespace {

namespace fs = std::filesystem;
using namespace aitax::lint;

void
usage()
{
    std::fprintf(stderr,
                 "usage: aitax_lint [options]\n"
                 "\n"
                 "Walks src/, tools/ and bench/ under the repo root and "
                 "checks every .h/.cc\n"
                 "file against the aitax determinism rules, file-local "
                 "and cross-file.\n"
                 "\n"
                 "  --root DIR       repo root (default: nearest parent "
                 "with src/ + ROADMAP.md)\n"
                 "  --baseline FILE  baseline path (default: "
                 "<root>/tools/lint_baseline.txt)\n"
                 "  --strict         fail on unbaselined findings and on "
                 "stale baseline entries;\n"
                 "                   also enables low-confidence checks\n"
                 "  --fix-baseline   rewrite the baseline to match "
                 "current findings\n"
                 "  --rule ID        run only this rule (repeatable)\n"
                 "  --no-baseline    report every finding, baseline "
                 "ignored\n"
                 "  --format FMT     output format: text (default) or "
                 "json\n"
                 "  --graph          dump the in-repo include graph as "
                 "DOT and exit\n"
                 "  --explain RULE   print a rule's summary and "
                 "rationale and exit\n"
                 "  --list-rules     print the rule catalogue and exit\n"
                 "  -q, --quiet      suppress per-finding hints\n");
}

/** Find the repo root: nearest parent of @p from with src/ + ROADMAP.md. */
std::string
findRoot(const fs::path &from)
{
    fs::path p = fs::absolute(from);
    while (true) {
        if (fs::exists(p / "src") && fs::exists(p / "ROADMAP.md"))
            return p.string();
        if (!p.has_parent_path() || p.parent_path() == p)
            return {};
        p = p.parent_path();
    }
}

void
listRules()
{
    for (const Rule &r : allRules()) {
        std::printf("%-20s %s\n", std::string(r.id).c_str(),
                    std::string(r.summary).c_str());
        std::printf("%-20s   why: %s\n", "",
                    std::string(r.rationale).c_str());
    }
    std::printf("cross-file rules:\n");
    for (const GraphRule &r : allGraphRules()) {
        std::printf("%-20s %s\n", std::string(r.id).c_str(),
                    std::string(r.summary).c_str());
        std::printf("%-20s   why: %s\n", "",
                    std::string(r.rationale).c_str());
    }
}

/** Print everything known about @p id. @return found anywhere. */
bool
explainRule(const std::string &id)
{
    bool found = false;
    if (const Rule *r = findRule(id)) {
        std::printf("%s (file-local)\n  summary: %s\n  why: %s\n",
                    id.c_str(), std::string(r->summary).c_str(),
                    std::string(r->rationale).c_str());
        found = true;
    }
    if (const GraphRule *g = findGraphRule(id)) {
        std::printf("%s (cross-file)\n  summary: %s\n  why: %s\n",
                    id.c_str(), std::string(g->summary).c_str(),
                    std::string(g->rationale).c_str());
        found = true;
    }
    if (const TaintSpec *t = findTaintSpec(id)) {
        std::printf("  fix: %s\n", std::string(t->hint).c_str());
        std::printf("  barrier: `// aitax-lint: taint-barrier(%s)` on "
                    "the line above a reviewed definition stops "
                    "propagation through it\n",
                    id.c_str());
    }
    return found;
}

bool
knownRule(const std::string &id)
{
    return findRule(id) != nullptr || findGraphRule(id) != nullptr;
}

} // namespace

int
main(int argc, char **argv)
{
    std::string root;
    std::string baselinePath;
    std::string format = "text";
    std::string explainId;
    LintOptions opts;
    bool fixBaseline = false;
    bool noBaseline = false;
    bool quiet = false;
    bool graph = false;
    bool doExplain = false;

    for (int i = 1; i < argc; ++i) {
        const std::string_view arg = argv[i];
        auto value = [&](const char *flag) -> const char * {
            if (i + 1 >= argc) {
                std::fprintf(stderr, "aitax_lint: %s needs a value\n",
                             flag);
                std::exit(2);
            }
            return argv[++i];
        };
        if (arg == "--root") {
            root = value("--root");
        } else if (arg == "--baseline") {
            baselinePath = value("--baseline");
        } else if (arg == "--rule") {
            opts.ruleFilter.emplace_back(value("--rule"));
        } else if (arg == "--strict") {
            opts.strict = true;
        } else if (arg == "--fix-baseline") {
            fixBaseline = true;
        } else if (arg == "--no-baseline") {
            noBaseline = true;
        } else if (arg == "--format") {
            format = value("--format");
        } else if (arg == "--graph") {
            graph = true;
        } else if (arg == "--explain") {
            explainId = value("--explain");
            doExplain = true;
        } else if (arg == "--list-rules") {
            listRules();
            return 0;
        } else if (arg == "-q" || arg == "--quiet") {
            quiet = true;
        } else if (arg == "-h" || arg == "--help") {
            usage();
            return 0;
        } else {
            std::fprintf(stderr, "aitax_lint: unknown argument '%s'\n",
                         std::string(arg).c_str());
            usage();
            return 2;
        }
    }

    if (doExplain) {
        if (!explainRule(explainId)) {
            std::fprintf(stderr, "aitax_lint: unknown rule '%s'\n",
                         explainId.c_str());
            return 2;
        }
        return 0;
    }
    if (format != "text" && format != "json") {
        std::fprintf(stderr, "aitax_lint: unknown format '%s'\n",
                     format.c_str());
        return 2;
    }
    for (const std::string &r : opts.ruleFilter) {
        if (!knownRule(r)) {
            std::fprintf(stderr, "aitax_lint: unknown rule '%s'\n",
                         r.c_str());
            return 2;
        }
    }

    if (root.empty())
        root = findRoot(fs::current_path());
    if (root.empty() || !fs::exists(fs::path(root) / "src")) {
        std::fprintf(stderr,
                     "aitax_lint: cannot locate repo root (pass "
                     "--root)\n");
        return 2;
    }
    if (baselinePath.empty())
        baselinePath =
            (fs::path(root) / "tools" / "lint_baseline.txt").string();

    if (graph) {
        const RepoIndex idx = RepoIndex::build(root);
        std::fputs(idx.dotGraph().c_str(), stdout);
        return 0;
    }

    const LintResult res = lintTree(root, opts);

    if (fixBaseline) {
        const Baseline b = Baseline::fromFindings(res.findings);
        std::ofstream out(baselinePath, std::ios::binary);
        if (!out) {
            std::fprintf(stderr, "aitax_lint: cannot write %s\n",
                         baselinePath.c_str());
            return 2;
        }
        out << b.render();
        out.close();
        if (!out) {
            std::fprintf(stderr, "aitax_lint: cannot write %s\n",
                         baselinePath.c_str());
            return 2;
        }
        std::printf("aitax_lint: wrote %zu baseline entries to %s\n",
                    b.size(), baselinePath.c_str());
        return 0;
    }

    std::vector<Finding> fresh;
    std::vector<BaselineEntry> stale;
    if (noBaseline) {
        fresh = res.findings;
    } else {
        const Baseline b = Baseline::load(baselinePath);
        stale = b.apply(res.findings, fresh);
    }

    if (format == "json") {
        const std::string report =
            renderJson(fresh, res.filesScanned,
                       res.findings.size() - fresh.size(),
                       res.suppressed, stale);
        std::fputs(report.c_str(), stdout);
        const bool failed =
            !fresh.empty() || (opts.strict && !stale.empty());
        return failed ? 1 : 0;
    }

    for (const Finding &f : fresh)
        std::printf("%s\n", formatFinding(f, !quiet).c_str());
    if (opts.strict) {
        for (const BaselineEntry &e : stale)
            std::printf("%s:%d: [%s] stale baseline entry: no such "
                        "finding anymore (remove it or run "
                        "--fix-baseline)\n",
                        e.file.c_str(), e.line, e.rule.c_str());
    }

    std::printf("aitax_lint: %zu file(s), %zu finding(s) "
                "(%zu baselined, %zu suppressed%s)\n",
                res.filesScanned, fresh.size(),
                res.findings.size() - fresh.size(), res.suppressed,
                opts.strict ? (", " + std::to_string(stale.size()) +
                               " stale baseline entr" +
                               (stale.size() == 1 ? "y" : "ies"))
                                  .c_str()
                            : "");

    const bool failed =
        !fresh.empty() || (opts.strict && !stale.empty());
    return failed ? 1 : 0;
}
