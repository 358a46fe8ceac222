/**
 * @file
 * aitax-lint driver: pass 1 builds the RepoIndex (every file
 * tokenized exactly once), pass 2 runs the file-local rule registry
 * per file plus the cross-file graph rules over the index, then
 * applies inline suppressions.
 *
 * Suppressions:
 *   `// aitax-lint: allow(rule-a, rule-b)` — suppresses those rules
 *   on the comment's own line and on the following line (so the
 *   annotation can trail the offending code or sit just above it).
 *   `// aitax-lint: allow-file(rule-a)` — suppresses a rule for the
 *   whole file. Always pair either form with a written rationale.
 *   Both forms apply to cross-file findings (layering, taint-*) at
 *   the line the finding is reported on.
 *   `// aitax-lint: taint-barrier(rule)` — stops taint propagation
 *   through the function defined on the next line (see taint.h).
 *
 * Everything here is deterministic by construction: directory walks
 * are sorted, findings are sorted by (file, line, rule), and the tool
 * itself is linted by the same rules it enforces.
 */

#ifndef AITAX_LINT_LINTER_H
#define AITAX_LINT_LINTER_H

#include <string>
#include <string_view>
#include <vector>

#include "lint/baseline.h"
#include "lint/index.h"
#include "lint/rules.h"

namespace aitax::lint {

/** Result of linting one file or tree. */
struct LintResult
{
    std::vector<Finding> findings;   ///< sorted, unsuppressed
    std::size_t suppressed = 0;      ///< count removed by allow()
    std::size_t filesScanned = 0;
};

/** Knobs shared by lintRepo / lintTree. */
struct LintOptions
{
    /** If non-empty, only these rule ids run (file-local + graph). */
    std::vector<std::string> ruleFilter;
    /** Emit low-confidence findings (and, in the CLI, fail on stale
     *  baseline entries). */
    bool strict = false;
    /** Layer contract path. Empty means <root>/tools/lint_layers.txt
     *  when linting a tree; a missing file disables layer-edge
     *  checks (cycle detection still runs). */
    std::string layersPath;
};

/**
 * Lint one in-memory source buffer as if it lived at @p virtualPath
 * (repo-relative, '/' separators). File-local rules only — cross-file
 * rules need an index; see lintRepo. Path scoping of the rules keys
 * off @p virtualPath, which lets tests lint fixtures under any path.
 *
 * @param ruleFilter if non-empty, only these rule ids run.
 */
LintResult lintSource(std::string_view virtualPath,
                      std::string_view content,
                      const std::vector<std::string> &ruleFilter = {});

/**
 * Run both passes over a prebuilt index: file-local rules per file,
 * graph rules across files, suppressions applied to everything.
 */
LintResult lintRepo(const RepoIndex &idx, const LintOptions &opts = {});

/**
 * Lint the repo tree rooted at @p root: every .h/.cc file under
 * src/, tools/ and bench/, in sorted path order (pass 1), then the
 * cross-file rules (pass 2).
 */
LintResult lintTree(const std::string &root,
                    const LintOptions &opts = {});

/** Render a finding as `file:line: [rule] message` + hint line. */
std::string formatFinding(const Finding &f, bool withHint = true);

/**
 * Machine-readable report (stable field order, deterministic bytes).
 * @p fresh are post-baseline findings; @p baselined the count the
 * baseline absorbed; @p stale baseline entries with no live finding.
 */
std::string renderJson(const std::vector<Finding> &fresh,
                       std::size_t filesScanned, std::size_t baselined,
                       std::size_t suppressed,
                       const std::vector<BaselineEntry> &stale);

} // namespace aitax::lint

#endif // AITAX_LINT_LINTER_H
