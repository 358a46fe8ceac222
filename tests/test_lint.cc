/**
 * @file
 * Tests for the aitax-lint library: one bad + one clean fixture per
 * rule, suppression semantics, baseline handling, and tokenizer edge
 * cases. Fixtures live in tests/lint_fixtures/ and are linted under
 * *virtual* paths so each test can place them wherever a rule's path
 * scoping requires.
 */

#include <algorithm>
#include <fstream>
#include <set>
#include <sstream>
#include <string>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "lint/baseline.h"
#include "lint/graph_rules.h"
#include "lint/index.h"
#include "lint/linter.h"
#include "lint/rules.h"
#include "lint/taint.h"
#include "lint/token.h"

namespace {

using aitax::lint::Baseline;
using aitax::lint::BaselineEntry;
using aitax::lint::Finding;
using aitax::lint::GraphOptions;
using aitax::lint::LayerContract;
using aitax::lint::LintOptions;
using aitax::lint::lintRepo;
using aitax::lint::LintResult;
using aitax::lint::lintSource;
using aitax::lint::RepoIndex;
using aitax::lint::TokKind;
using aitax::lint::tokenize;

using SourceList = std::vector<std::pair<std::string, std::string>>;

std::string
readFixture(const std::string &name)
{
    const std::string path = std::string(AITAX_LINT_FIXTURES) + "/" + name;
    std::ifstream in(path, std::ios::binary);
    EXPECT_TRUE(in.good()) << "missing fixture " << path;
    std::ostringstream ss;
    ss << in.rdbuf();
    return ss.str();
}

/** Lint fixture @p name as if it lived at @p virtualPath, optionally
 *  restricted to a single rule. */
LintResult
lintFixture(const std::string &name, const std::string &virtualPath,
            const std::vector<std::string> &rules = {})
{
    return lintSource(virtualPath, readFixture(name), rules);
}

std::multiset<int>
findingLines(const LintResult &r)
{
    std::multiset<int> lines;
    for (const Finding &f : r.findings)
        lines.insert(f.line);
    return lines;
}

void
expectAllRule(const LintResult &r, const std::string &rule)
{
    for (const Finding &f : r.findings)
        EXPECT_EQ(f.rule, rule) << f.file << ":" << f.line;
}

// --- tokenizer ---------------------------------------------------------

TEST(Tokenizer, ClassifiesCommentsStringsAndCode)
{
    const auto toks = tokenize("int x = 1; // trailing\n"
                               "/* block */ const char *s = \"lit\";\n");
    std::size_t ident = 0;
    std::size_t comment = 0;
    std::size_t str = 0;
    for (const auto &t : toks) {
        if (t.kind == TokKind::Identifier)
            ++ident;
        else if (t.kind == TokKind::Comment)
            ++comment;
        else if (t.kind == TokKind::String)
            ++str;
    }
    EXPECT_EQ(ident, 5U); // int x const char s ("lit" is a String)
    EXPECT_EQ(comment, 2U);
    EXPECT_EQ(str, 1U);
}

TEST(Tokenizer, BannedNamesInCommentsAndStringsAreNotIdentifiers)
{
    const auto toks =
        tokenize("// steady_clock::now()\n"
                 "const char *m = \"std::unordered_map<int,int>\";\n");
    for (const auto &t : toks) {
        if (t.kind == TokKind::Identifier) {
            EXPECT_TRUE(t.text != "steady_clock" &&
                        t.text != "unordered_map")
                << t.text;
        }
    }
}

TEST(Tokenizer, ScopeResolutionIsOneToken)
{
    const auto toks = tokenize("std::sort(v.begin(), v.end());");
    bool sawScope = false;
    for (const auto &t : toks)
        if (t.kind == TokKind::Punct && t.text == "::")
            sawScope = true;
    EXPECT_TRUE(sawScope);
}

TEST(Tokenizer, RawStringsSwallowFakeDelimiters)
{
    const auto toks =
        tokenize("auto s = R\"x(rand() \" mt19937)x\"; int after = 1;");
    for (const auto &t : toks) {
        if (t.kind == TokKind::Identifier) {
            EXPECT_TRUE(t.text != "rand" && t.text != "mt19937") << t.text;
        }
    }
    // Lexing continued past the raw string.
    const bool sawAfter =
        std::any_of(toks.begin(), toks.end(), [](const auto &t) {
            return t.kind == TokKind::Identifier && t.text == "after";
        });
    EXPECT_TRUE(sawAfter);
}

TEST(Tokenizer, ContinuedPreprocessorLineIsOneToken)
{
    const auto toks = tokenize("#define TWO_LINES \\\n    1\nint x;\n");
    std::size_t preproc = 0;
    for (const auto &t : toks)
        if (t.kind == TokKind::Preproc)
            ++preproc;
    EXPECT_EQ(preproc, 1U);
}

TEST(Tokenizer, UnterminatedLiteralDoesNotAbort)
{
    const auto toks = tokenize("const char *s = \"oops");
    EXPECT_FALSE(toks.empty());
}

// --- wall-clock --------------------------------------------------------

TEST(RuleWallClock, FlagsEveryClockRead)
{
    const auto r =
        lintFixture("wall_clock_bad.cc", "src/soc/x.cc", {"wall-clock"});
    expectAllRule(r, "wall-clock");
    EXPECT_EQ(findingLines(r), (std::multiset<int>{9, 10, 11, 12, 13, 15}));
}

TEST(RuleWallClock, CleanVirtualTimeCodePasses)
{
    const auto r =
        lintFixture("wall_clock_clean.cc", "src/soc/x.cc", {"wall-clock"});
    EXPECT_TRUE(r.findings.empty());
}

TEST(RuleWallClock, BenchAndSweepAreExempt)
{
    EXPECT_TRUE(lintFixture("wall_clock_bad.cc", "bench/x.cc",
                            {"wall-clock"})
                    .findings.empty());
    EXPECT_TRUE(lintFixture("wall_clock_bad.cc", "src/sweep/x.cc",
                            {"wall-clock"})
                    .findings.empty());
}

// --- raw-random --------------------------------------------------------

TEST(RuleRawRandom, FlagsUnseededRng)
{
    const auto r =
        lintFixture("raw_random_bad.cc", "src/soc/x.cc", {"raw-random"});
    expectAllRule(r, "raw-random");
    EXPECT_EQ(findingLines(r), (std::multiset<int>{8, 9, 10, 11, 12}));
}

TEST(RuleRawRandom, SeededStreamPasses)
{
    const auto r = lintFixture("raw_random_clean.cc", "src/soc/x.cc",
                               {"raw-random"});
    EXPECT_TRUE(r.findings.empty());
}

TEST(RuleRawRandom, RandomModuleItselfIsExempt)
{
    const auto r = lintFixture("raw_random_bad.cc", "src/sim/random.cc",
                               {"raw-random"});
    EXPECT_TRUE(r.findings.empty());
}

// --- unordered-container -----------------------------------------------

TEST(RuleUnordered, FlagsHashContainers)
{
    const auto r = lintFixture("unordered_bad.cc", "src/core/x.cc",
                               {"unordered-container"});
    expectAllRule(r, "unordered-container");
    EXPECT_EQ(findingLines(r), (std::multiset<int>{9, 10}));
}

TEST(RuleUnordered, OrderedContainersPass)
{
    const auto r = lintFixture("unordered_clean.cc", "src/core/x.cc",
                               {"unordered-container"});
    EXPECT_TRUE(r.findings.empty());
}

TEST(RuleUnordered, OnlySrcIsInScope)
{
    const auto r = lintFixture("unordered_bad.cc", "tools/x.cc",
                               {"unordered-container"});
    EXPECT_TRUE(r.findings.empty());
}

// --- raw-new-delete ----------------------------------------------------

TEST(RuleNewDelete, FlagsRawAllocationOnHotPaths)
{
    const auto r = lintFixture("new_delete_bad.cc", "src/sim/x.cc",
                               {"raw-new-delete"});
    expectAllRule(r, "raw-new-delete");
    EXPECT_EQ(findingLines(r), (std::multiset<int>{10, 12, 13, 14}));
}

TEST(RuleNewDelete, DeletedSpecialMembersPass)
{
    const auto r = lintFixture("new_delete_clean.cc", "src/soc/x.cc",
                               {"raw-new-delete"});
    EXPECT_TRUE(r.findings.empty());
}

TEST(RuleNewDelete, ColdPathsAreOutOfScope)
{
    const auto r = lintFixture("new_delete_bad.cc", "src/core/x.cc",
                               {"raw-new-delete"});
    EXPECT_TRUE(r.findings.empty());
}

// --- std-function ------------------------------------------------------

TEST(RuleStdFunction, FlagsStdFunctionOnHotPaths)
{
    const auto r = lintFixture("std_function_bad.cc", "src/soc/x.cc",
                               {"std-function"});
    expectAllRule(r, "std-function");
    EXPECT_EQ(findingLines(r), (std::multiset<int>{6, 10}));
}

TEST(RuleStdFunction, RuntimeIsAHotPath)
{
    // src/runtime/ builds every frame's offload closures.
    const auto fn = lintFixture("std_function_bad.cc", "src/runtime/x.cc",
                                {"std-function"});
    EXPECT_EQ(findingLines(fn), (std::multiset<int>{6, 10}));
    const auto alloc = lintFixture("new_delete_bad.cc", "src/runtime/x.cc",
                                   {"raw-new-delete"});
    EXPECT_EQ(findingLines(alloc), (std::multiset<int>{10, 12, 13, 14}));
}

TEST(RuleStdFunction, EventFnAndProsePass)
{
    const auto r = lintFixture("std_function_clean.cc", "src/sim/x.cc",
                               {"std-function"});
    EXPECT_TRUE(r.findings.empty());
}

// --- unstable-sort -----------------------------------------------------

TEST(RuleUnstableSort, FlagsStdSort)
{
    const auto r = lintFixture("unstable_sort_bad.cc", "src/stats/x.cc",
                               {"unstable-sort"});
    expectAllRule(r, "unstable-sort");
    EXPECT_EQ(findingLines(r), (std::multiset<int>{14}));
}

TEST(RuleUnstableSort, StableSortAndMemberSortPass)
{
    const auto r = lintFixture("unstable_sort_clean.cc", "src/stats/x.cc",
                               {"unstable-sort"});
    EXPECT_TRUE(r.findings.empty());
}

// --- float-accum -------------------------------------------------------

TEST(RuleFloatAccum, FlagsFloatAccumulatorsAndUnorderedReductions)
{
    const auto r = lintFixture("float_accum_bad.cc", "src/stats/x.cc",
                               {"float-accum"});
    expectAllRule(r, "float-accum");
    EXPECT_EQ(findingLines(r), (std::multiset<int>{11, 12}));
}

TEST(RuleFloatAccum, DoubleAccumulationPasses)
{
    const auto r = lintFixture("float_accum_clean.cc", "src/stats/x.cc",
                               {"float-accum"});
    EXPECT_TRUE(r.findings.empty());
}

TEST(RuleFloatAccum, NonReportPathsAreOutOfScope)
{
    const auto r = lintFixture("float_accum_bad.cc", "src/postproc/x.cc",
                               {"float-accum"});
    EXPECT_TRUE(r.findings.empty());
}

// --- include-hygiene ---------------------------------------------------

TEST(RuleIncludeHygiene, FlagsDuplicateDeprecatedAndAngledProject)
{
    const auto r = lintFixture("include_hygiene_bad.cc", "src/core/x.cc",
                               {"include-hygiene"});
    expectAllRule(r, "include-hygiene");
    EXPECT_EQ(findingLines(r), (std::multiset<int>{3, 4, 5}));
}

TEST(RuleIncludeHygiene, TidyIncludesPass)
{
    const auto r = lintFixture("include_hygiene_clean.cc",
                               "src/core/x.cc", {"include-hygiene"});
    EXPECT_TRUE(r.findings.empty());
}

// --- header-guard ------------------------------------------------------

TEST(RuleHeaderGuard, FlagsMissingGuard)
{
    const auto r = lintFixture("header_guard_missing.h", "src/soc/fix.h",
                               {"header-guard"});
    ASSERT_EQ(r.findings.size(), 1U);
    EXPECT_EQ(r.findings[0].rule, "header-guard");
    EXPECT_EQ(r.findings[0].line, 1);
}

TEST(RuleHeaderGuard, FlagsIfndefDefineMismatch)
{
    const auto r = lintFixture("header_guard_mismatch.h", "src/soc/fix.h",
                               {"header-guard"});
    ASSERT_EQ(r.findings.size(), 1U);
    EXPECT_NE(r.findings[0].message.find("does not match"),
              std::string::npos);
}

TEST(RuleHeaderGuard, FlagsNonCanonicalMacro)
{
    const auto r = lintFixture("header_guard_noncanonical.h",
                               "src/soc/fix.h", {"header-guard"});
    ASSERT_EQ(r.findings.size(), 1U);
    EXPECT_NE(r.findings[0].hint.find("AITAX_SOC_FIX_H"),
              std::string::npos);
}

TEST(RuleHeaderGuard, CanonicalGuardAndPragmaOncePass)
{
    EXPECT_TRUE(lintFixture("header_guard_clean.h", "src/soc/fix.h",
                            {"header-guard"})
                    .findings.empty());
    EXPECT_TRUE(lintFixture("header_guard_pragma.h", "src/soc/fix.h",
                            {"header-guard"})
                    .findings.empty());
}

TEST(RuleHeaderGuard, SourceFilesAreNotChecked)
{
    // A .cc file with no guard is fine.
    const auto r = lintSource("src/soc/fix.cc", "int x = 1;\n",
                              {"header-guard"});
    EXPECT_TRUE(r.findings.empty());
}

// --- suppressions ------------------------------------------------------

TEST(Suppression, MarkerCoversOwnAndNextLineOnly)
{
    const auto r = lintFixture("suppress_line.cc", "src/soc/x.cc",
                               {"wall-clock"});
    EXPECT_EQ(findingLines(r), (std::multiset<int>{10, 13}));
    EXPECT_EQ(r.suppressed, 2U);
}

TEST(Suppression, AllowFileCoversOnlyTheNamedRule)
{
    const auto r = lintFixture("suppress_file.cc", "src/soc/x.cc");
    ASSERT_EQ(r.findings.size(), 1U);
    EXPECT_EQ(r.findings[0].rule, "raw-random");
    EXPECT_EQ(r.findings[0].line, 12);
    EXPECT_EQ(r.suppressed, 2U);
}

// --- rule registry -----------------------------------------------------

TEST(RuleRegistry, HasAtLeastEightRulesSortedById)
{
    const auto &rules = aitax::lint::allRules();
    EXPECT_GE(rules.size(), 8U);
    for (std::size_t i = 1; i < rules.size(); ++i)
        EXPECT_LT(rules[i - 1].id, rules[i].id);
    for (const auto &rule : rules) {
        EXPECT_FALSE(rule.summary.empty()) << rule.id;
        EXPECT_FALSE(rule.rationale.empty()) << rule.id;
    }
}

TEST(RuleRegistry, FindRule)
{
    EXPECT_NE(aitax::lint::findRule("wall-clock"), nullptr);
    EXPECT_EQ(aitax::lint::findRule("no-such-rule"), nullptr);
}

// --- findings are deterministic ----------------------------------------

TEST(Determinism, FindingsAreSortedAndStableAcrossRuns)
{
    const std::string src = readFixture("wall_clock_bad.cc");
    const auto a = lintSource("src/soc/x.cc", src);
    const auto b = lintSource("src/soc/x.cc", src);
    ASSERT_EQ(a.findings.size(), b.findings.size());
    for (std::size_t i = 0; i < a.findings.size(); ++i) {
        EXPECT_EQ(a.findings[i].rule, b.findings[i].rule);
        EXPECT_EQ(a.findings[i].line, b.findings[i].line);
        if (i > 0) {
            EXPECT_FALSE(a.findings[i] < a.findings[i - 1]);
        }
    }
}

// --- baseline ----------------------------------------------------------

TEST(BaselineTest, ParseSkipsCommentsAndBlanks)
{
    const Baseline b = Baseline::parse("# header\n"
                                       "\n"
                                       "src/soc/task.h:48:std-function\n"
                                       "src/sim/simulator.cc:34:std-function\n");
    EXPECT_EQ(b.size(), 2U);
    // Entries come back sorted regardless of input order.
    EXPECT_EQ(b.entries()[0].file, "src/sim/simulator.cc");
    EXPECT_EQ(b.entries()[1].line, 48);
}

TEST(BaselineTest, RenderParseRoundTrip)
{
    std::vector<Finding> findings = {
        {"src/a.cc", 3, "wall-clock", "m", "h"},
        {"src/b.cc", 7, "raw-random", "m", "h"},
    };
    const Baseline b = Baseline::fromFindings(findings);
    const Baseline reparsed = Baseline::parse(b.render());
    EXPECT_EQ(reparsed.entries(), b.entries());
}

TEST(BaselineTest, ApplySplitsFreshAndStale)
{
    const Baseline b = Baseline::parse("src/a.cc:3:wall-clock\n"
                                       "src/gone.cc:9:raw-random\n");
    std::vector<Finding> findings = {
        {"src/a.cc", 3, "wall-clock", "m", "h"},  // baselined
        {"src/a.cc", 5, "wall-clock", "m", "h"},  // fresh
    };
    std::vector<Finding> fresh;
    const std::vector<BaselineEntry> stale = b.apply(findings, fresh);
    ASSERT_EQ(fresh.size(), 1U);
    EXPECT_EQ(fresh[0].line, 5);
    ASSERT_EQ(stale.size(), 1U);
    EXPECT_EQ(stale[0].file, "src/gone.cc");
}

TEST(BaselineTest, ContainsMatchesExactTriple)
{
    const Baseline b = Baseline::parse("src/a.cc:3:wall-clock\n");
    EXPECT_TRUE(b.contains({"src/a.cc", 3, "wall-clock", "", ""}));
    EXPECT_FALSE(b.contains({"src/a.cc", 4, "wall-clock", "", ""}));
    EXPECT_FALSE(b.contains({"src/a.cc", 3, "raw-random", "", ""}));
}

// --- RepoIndex: pass-1 construction ------------------------------------

TEST(RepoIndexTest, FilesAreSortedRegardlessOfInsertionOrder)
{
    const SourceList forward = {
        {"src/sim/a.h", "namespace aitax::sim { class A; }\n"},
        {"src/sim/b.h", "namespace aitax::sim { class B; }\n"},
        {"tools/t.cc", "int main() { return 0; }\n"},
    };
    SourceList reversed(forward.rbegin(), forward.rend());

    const RepoIndex fwd = RepoIndex::fromSources(forward);
    const RepoIndex rev = RepoIndex::fromSources(reversed);

    ASSERT_EQ(fwd.files().size(), 3U);
    ASSERT_EQ(rev.files().size(), 3U);
    for (std::size_t i = 0; i < fwd.files().size(); ++i) {
        EXPECT_EQ(fwd.files()[i].path, rev.files()[i].path);
        if (i > 0) {
            EXPECT_LT(fwd.files()[i - 1].path, fwd.files()[i].path);
        }
    }
    // The derived DOT graph is byte-identical too.
    EXPECT_EQ(fwd.dotGraph(), rev.dotGraph());
}

TEST(RepoIndexTest, ModuleOfStripsSrcPrefix)
{
    EXPECT_EQ(RepoIndex::moduleOf("src/sim/engine.cc"), "sim");
    EXPECT_EQ(RepoIndex::moduleOf("tools/aitax_cli.cc"), "tools");
    EXPECT_EQ(RepoIndex::moduleOf("bench/bench_soc.cc"), "bench");
}

TEST(RepoIndexTest, IncludeClosureAndDeclarations)
{
    const RepoIndex idx = RepoIndex::fromSources({
        {"src/sim/a.h",
         "#include \"sim/b.h\"\nnamespace aitax::sim { class A; }\n"},
        {"src/sim/b.h", "namespace aitax::sim { class B; }\n"},
        {"src/sim/lone.h", "namespace aitax::sim { class Lone; }\n"},
    });
    const int a = idx.fileIndexOf("src/sim/a.h");
    const int b = idx.fileIndexOf("src/sim/b.h");
    ASSERT_GE(a, 0);
    ASSERT_GE(b, 0);

    // Closure is self-inclusive, transitive and sorted.
    const std::vector<int> want = {std::min(a, b), std::max(a, b)};
    EXPECT_EQ(idx.includeClosure(a), want);
    EXPECT_TRUE(idx.closureDeclares(a, "B"));
    EXPECT_FALSE(idx.closureDeclares(b, "A"));
    EXPECT_FALSE(idx.closureDeclares(a, "Lone"));
    EXPECT_EQ(idx.declarersOf("B"), std::vector<int>{b});
    EXPECT_TRUE(idx.declarersOf("Nowhere").empty());
}

TEST(RepoIndexTest, FunctionDefsCallsAndSeeds)
{
    const RepoIndex idx = RepoIndex::fromSources({
        {"src/sweep/t.cc",
         "#include <chrono>\n"
         "namespace aitax::sweep {\n"
         "double helper();\n"
         "double wall()\n{\n"
         "    const auto t = std::chrono::steady_clock::now();\n"
         "    return helper() + t.time_since_epoch().count();\n"
         "}\n"
         "} // namespace aitax::sweep\n"},
    });
    ASSERT_EQ(idx.files().size(), 1U);
    const auto *refs = idx.lookupFunctions("wall");
    ASSERT_NE(refs, nullptr);
    ASSERT_EQ(refs->size(), 1U);
    const auto &def = idx.function((*refs)[0]);
    EXPECT_EQ(def.name, "wall");
    // Calls are recorded in body order; `now(` precedes `helper(`.
    const bool callsHelper =
        std::any_of(def.calls.begin(), def.calls.end(),
                    [](const auto &c) { return c.name == "helper"; });
    EXPECT_TRUE(callsHelper);
    // steady_clock seeds taint-clock at its source line.
    ASSERT_TRUE(def.seeds.count("taint-clock"));
    EXPECT_EQ(def.seeds.at("taint-clock").first, "steady_clock");
    EXPECT_EQ(def.seeds.at("taint-clock").second, 6);
    // Declarations without bodies are not definitions.
    EXPECT_EQ(idx.lookupFunctions("helper"), nullptr);
}

// --- graph rules: layering / cycles ------------------------------------

TEST(GraphRules, RegistryIsSortedAndComplete)
{
    const auto &rules = aitax::lint::allGraphRules();
    EXPECT_GE(rules.size(), 4U);
    for (std::size_t i = 1; i < rules.size(); ++i)
        EXPECT_LT(rules[i - 1].id, rules[i].id);
    EXPECT_NE(aitax::lint::findGraphRule("layering"), nullptr);
    EXPECT_NE(aitax::lint::findGraphRule("taint-clock"), nullptr);
    EXPECT_EQ(aitax::lint::findGraphRule("no-such-rule"), nullptr);
}

TEST(GraphRules, LayerContractParse)
{
    const LayerContract c =
        LayerContract::parse("# comment\n"
                             "layer sim stats\n"
                             "layer sweep\n"
                             "free core/thread_annotations.h\n");
    EXPECT_EQ(c.layerOf.at("sim"), 1);
    EXPECT_EQ(c.layerOf.at("stats"), 1);
    EXPECT_EQ(c.layerOf.at("sweep"), 2);
    EXPECT_TRUE(c.isFree("src/core/thread_annotations.h"));
    EXPECT_FALSE(c.isFree("src/core/event.h"));
}

TEST(GraphRules, IncludeCycleIsReportedOnceCanonically)
{
    const RepoIndex idx = RepoIndex::fromSources({
        {"src/sim/a.h", "#include \"sim/b.h\"\n"},
        {"src/sim/b.h", "#include \"sim/c.h\"\n"},
        {"src/sim/c.h", "#include \"sim/a.h\"\n"},
    });
    std::vector<Finding> out;
    aitax::lint::findGraphRule("layering")->check(idx, GraphOptions{},
                                                  out);
    ASSERT_EQ(out.size(), 1U);
    EXPECT_EQ(out[0].rule, "layering");
    EXPECT_EQ(out[0].file, "src/sim/a.h");
    EXPECT_NE(out[0].message.find("src/sim/a.h -> src/sim/b.h -> "
                                  "src/sim/c.h -> src/sim/a.h"),
              std::string::npos)
        << out[0].message;
}

// --- taint propagation -------------------------------------------------

/** Mutually recursive pair in src/sweep/ where fB reads the wall
 *  clock, plus a restricted caller in src/soc/. The propagation
 *  fixed point must terminate on the call-graph cycle and taint both
 *  functions. */
SourceList
taintCycleSources(const std::string &callerLine)
{
    return {
        {"src/sweep/a.cc",
         "namespace aitax::sweep {\n"
         "double fB();\n"
         "double fA()\n{\n"
         "    return fB();\n"
         "}\n"
         "} // namespace aitax::sweep\n"},
        {"src/sweep/b.cc",
         "#include <chrono>\n"
         "namespace aitax::sweep {\n"
         "double fA();\n"
         "double fB()\n{\n"
         "    const auto t = std::chrono::steady_clock::now();\n"
         "    return fA() + t.time_since_epoch().count();\n"
         "}\n"
         "} // namespace aitax::sweep\n"},
        {"src/soc/use.cc",
         "namespace aitax::soc {\n"
         "double go()\n{\n" +
             callerLine +
             "}\n"
             "} // namespace aitax::soc\n"},
    };
}

TEST(Taint, FixedPointTerminatesOnCallGraphCycle)
{
    const RepoIndex idx =
        RepoIndex::fromSources(taintCycleSources("    return fA();\n"));
    const auto *spec = aitax::lint::findTaintSpec("taint-clock");
    ASSERT_NE(spec, nullptr);
    std::vector<Finding> out;
    aitax::lint::propagateTaint(idx, *spec, out);

    // Exactly one finding: the cross-file call in restricted code.
    // The tainted-but-exempt definitions in src/sweep/ stay silent.
    ASSERT_EQ(out.size(), 1U);
    EXPECT_EQ(out[0].file, "src/soc/use.cc");
    EXPECT_EQ(out[0].line, 4);
    EXPECT_EQ(out[0].rule, "taint-clock");
    EXPECT_NE(out[0].message.find("`fA`"), std::string::npos)
        << out[0].message;
    EXPECT_NE(out[0].message.find("steady_clock"), std::string::npos)
        << out[0].message;
}

TEST(Taint, BarrierStopsPropagation)
{
    SourceList srcs = taintCycleSources("    return fA();\n");
    // Seal fA: the wall reach is reviewed and does not escape.
    srcs[0].second =
        "namespace aitax::sweep {\n"
        "double fB();\n"
        "// aitax-lint: taint-barrier(taint-clock)\n"
        "double fA()\n{\n"
        "    return fB();\n"
        "}\n"
        "} // namespace aitax::sweep\n";
    const RepoIndex idx = RepoIndex::fromSources(srcs);
    std::vector<Finding> out;
    aitax::lint::propagateTaint(
        idx, *aitax::lint::findTaintSpec("taint-clock"), out);
    EXPECT_TRUE(out.empty());
}

TEST(Taint, RegistryLookup)
{
    EXPECT_EQ(aitax::lint::taintSpecs().size(), 2U);
    EXPECT_NE(aitax::lint::findTaintSpec("taint-random"), nullptr);
    EXPECT_EQ(aitax::lint::findTaintSpec("wall-clock"), nullptr);
}

// --- cross-file findings vs suppressions and baseline ------------------

TEST(CrossFile, AllowMarkerSuppressesTaintFinding)
{
    const RepoIndex idx = RepoIndex::fromSources(taintCycleSources(
        "    // aitax-lint: allow(taint-clock) — progress line only\n"
        "    return fA();\n"));
    LintOptions opts;
    opts.ruleFilter = {"taint-clock"};
    const LintResult r = lintRepo(idx, opts);
    EXPECT_TRUE(r.findings.empty());
    EXPECT_EQ(r.suppressed, 1U);
}

TEST(CrossFile, BaselineAbsorbsTaintFindingAndGoesStale)
{
    const RepoIndex idx =
        RepoIndex::fromSources(taintCycleSources("    return fA();\n"));
    LintOptions opts;
    opts.ruleFilter = {"taint-clock"};
    const LintResult r = lintRepo(idx, opts);
    ASSERT_EQ(r.findings.size(), 1U);

    // A baseline built from the finding absorbs it...
    const Baseline b = Baseline::fromFindings(r.findings);
    std::vector<Finding> fresh;
    EXPECT_TRUE(b.apply(r.findings, fresh).empty());
    EXPECT_TRUE(fresh.empty());

    // ...and goes stale once the finding is fixed (shrink-only).
    const Baseline stale =
        Baseline::parse("src/soc/use.cc:4:taint-clock\n"
                        "src/gone.cc:1:taint-clock\n");
    fresh.clear();
    const std::vector<BaselineEntry> left = stale.apply(r.findings, fresh);
    ASSERT_EQ(left.size(), 1U);
    EXPECT_EQ(left[0].file, "src/gone.cc");
}

TEST(CrossFile, SelfContainedHeaderCheckIsStrictOnly)
{
    const RepoIndex idx = RepoIndex::fromSources({
        {"src/sim/widget.h", "namespace aitax::sim {\nclass Widget;\n}\n"},
        {"src/soc/p.h",
         "namespace aitax::soc {\nsim::Widget *get();\n}\n"},
    });
    LintOptions opts;
    opts.ruleFilter = {"include-hygiene"};
    // Low-confidence findings are dropped by default...
    EXPECT_TRUE(lintRepo(idx, opts).findings.empty());
    // ...and surface under --strict.
    opts.strict = true;
    const LintResult r = lintRepo(idx, opts);
    ASSERT_EQ(r.findings.size(), 1U);
    EXPECT_EQ(r.findings[0].file, "src/soc/p.h");
    EXPECT_EQ(r.findings[0].rule, "include-hygiene");
    EXPECT_NE(r.findings[0].message.find("sim::Widget"),
              std::string::npos);
}

// --- formatting --------------------------------------------------------

TEST(Format, FindingRendersPathLineRuleAndHint)
{
    const Finding f{"src/a.cc", 3, "wall-clock", "msg", "hint"};
    const std::string s = aitax::lint::formatFinding(f);
    EXPECT_NE(s.find("src/a.cc:3"), std::string::npos);
    EXPECT_NE(s.find("wall-clock"), std::string::npos);
    EXPECT_NE(s.find("msg"), std::string::npos);
    EXPECT_NE(s.find("hint"), std::string::npos);
}

} // namespace
