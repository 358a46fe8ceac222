#include "lint/rules.h"

#include <algorithm>
#include <cctype>
#include <set>
#include <string>

#include "lint/taint.h"

namespace aitax::lint {

bool
FileContext::startsWith(std::string_view prefix) const
{
    return path.size() >= prefix.size() &&
           std::string_view(path).substr(0, prefix.size()) == prefix;
}

bool
FileContext::startsWithAny(
    const std::vector<std::string_view> &prefixes) const
{
    for (std::string_view p : prefixes)
        if (startsWith(p))
            return true;
    return false;
}

namespace {

void
emit(std::vector<Finding> &out, const FileContext &f, int line,
     std::string_view rule, std::string message, std::string hint)
{
    // One finding per (line, rule): several matches on a line are one
    // violation to fix.
    for (const Finding &prev : out)
        if (prev.line == line && prev.rule == rule)
            return;
    out.push_back({f.path, line, std::string(rule), std::move(message),
                   std::move(hint)});
}

bool
isIdent(const Token &t, std::string_view name)
{
    return t.kind == TokKind::Identifier && t.text == name;
}

/** True if code[i] is identifier @p name qualified as `std::name`
 *  (or unqualified when @p requireStd is false). */
bool
matchesScoped(const std::vector<Token> &code, std::size_t i,
              std::string_view name, bool requireStd)
{
    if (!isIdent(code[i], name))
        return false;
    if (!requireStd)
        return true;
    return i >= 2 && code[i - 1].kind == TokKind::Punct &&
           code[i - 1].text == "::" && isIdent(code[i - 2], "std");
}

/** True if the token after code[i] is the punctuator @p p. */
bool
nextIs(const std::vector<Token> &code, std::size_t i, std::string_view p)
{
    return i + 1 < code.size() && code[i + 1].kind == TokKind::Punct &&
           code[i + 1].text == p;
}

// --- wall-clock --------------------------------------------------------

const std::vector<std::string_view> kWallClockAllowed = {
    "src/sweep/",
    "bench/",
};

void
checkWallClock(const FileContext &f, std::vector<Finding> &out)
{
    if (f.startsWithAny(kWallClockAllowed))
        return;
    // Name tables shared with the taint-clock seeds (taint.h).
    const auto &banned = wallClockBanned();
    const auto &callOnly = wallClockCallOnly();
    const auto &code = f.code;
    for (std::size_t i = 0; i < code.size(); ++i) {
        const Token &t = code[i];
        if (t.kind != TokKind::Identifier)
            continue;
        if (banned.count(t.text) ||
            (callOnly.count(t.text) && nextIs(code, i, "("))) {
            emit(out, f, t.line, "wall-clock",
                 "wall-clock read `" + t.text +
                     "` outside src/sweep//bench/",
                 "simulation code must use virtual time (sim::TimeNs / "
                 "Simulator::now()); wall time is run-to-run "
                 "nondeterministic");
        }
    }
}

// --- raw-random --------------------------------------------------------

void
checkRawRandom(const FileContext &f, std::vector<Finding> &out)
{
    if (f.startsWith("src/sim/random."))
        return;
    // Name tables shared with the taint-random seeds (taint.h).
    // `rand` is call-only so a field named rand does not count.
    const auto &banned = rawRandomBanned();
    const auto &callOnly = rawRandomCallOnly();
    for (std::size_t i = 0; i < f.code.size(); ++i) {
        const Token &t = f.code[i];
        if (t.kind != TokKind::Identifier)
            continue;
        if (!banned.count(t.text) &&
            !(callOnly.count(t.text) && nextIs(f.code, i, "(")))
            continue;
        emit(out, f, t.line, "raw-random",
             "unseeded/non-reproducible RNG `" + t.text +
                 "` outside src/sim/random",
             "draw from sim::RandomStream (seeded, bit-reproducible "
             "across stdlibs); std distributions are not "
             "implementation-stable");
    }
}

// --- unordered-container -----------------------------------------------

void
checkUnordered(const FileContext &f, std::vector<Finding> &out)
{
    if (!f.startsWith("src/"))
        return;
    static const std::set<std::string_view> banned = {
        "unordered_map", "unordered_set", "unordered_multimap",
        "unordered_multiset",
    };
    for (const Token &t : f.code) {
        if (t.kind != TokKind::Identifier || !banned.count(t.text))
            continue;
        emit(out, f, t.line, "unordered-container",
             "`std::" + t.text + "` in simulator/report code",
             "iteration order is hash/libc-dependent and can leak into "
             "traces, tax reports or serialized output; use std::map, "
             "a sorted vector, or suppress with a proven "
             "never-iterated rationale");
    }
}

// --- raw-new-delete ----------------------------------------------------

const std::vector<std::string_view> kHotPaths = {
    "src/runtime/",
    "src/sim/",
    "src/soc/",
};

void
checkNewDelete(const FileContext &f, std::vector<Finding> &out)
{
    if (!f.startsWithAny(kHotPaths))
        return;
    const auto &code = f.code;
    for (std::size_t i = 0; i < code.size(); ++i) {
        const Token &t = code[i];
        if (t.kind != TokKind::Identifier)
            continue;
        if (t.text != "new" && t.text != "delete")
            continue;
        // `= delete;` declarations are not deallocation (but `= new T`
        // is very much an allocation).
        if (t.text == "delete" && i > 0 &&
            code[i - 1].kind == TokKind::Punct && code[i - 1].text == "=")
            continue;
        emit(out, f, t.line, "raw-new-delete",
             "raw `" + t.text + "` on a simulator hot path",
             "per-event allocations dominate sim cost; use value "
             "members, arenas/free lists (see EventQueue slots) or "
             "sim::EventFn's inline buffer");
    }
}

// --- std-function ------------------------------------------------------

void
checkStdFunction(const FileContext &f, std::vector<Finding> &out)
{
    if (!f.startsWithAny(kHotPaths))
        return;
    for (std::size_t i = 0; i < f.code.size(); ++i) {
        if (!matchesScoped(f.code, i, "function", true))
            continue;
        emit(out, f, f.code[i].line, "std-function",
             "`std::function` on a simulator hot path",
             "std::function heap-allocates typical simulator captures; "
             "use sim::EventFn (src/sim/inline_function.h) for "
             "callbacks scheduled per event");
    }
}

// --- guarded-mutex -----------------------------------------------------

/** Non-preproc view of the code stream. */
std::vector<const Token *>
pureCode(const std::vector<Token> &code)
{
    std::vector<const Token *> v;
    v.reserve(code.size());
    for (const Token &t : code)
        if (t.kind != TokKind::Preproc)
            v.push_back(&t);
    return v;
}

bool
viewPunct(const std::vector<const Token *> &v, std::size_t i,
          std::string_view p)
{
    return i < v.size() && v[i]->kind == TokKind::Punct &&
           v[i]->text == p;
}

/** Index just past the token matching the opener at @p open. */
std::size_t
viewSkip(const std::vector<const Token *> &v, std::size_t open,
         std::string_view opener, std::string_view closer)
{
    int depth = 0;
    std::size_t i = open;
    for (; i < v.size(); ++i) {
        if (viewPunct(v, i, opener))
            ++depth;
        else if (viewPunct(v, i, closer) && --depth == 0)
            return i + 1;
    }
    return i;
}

/** One data member of a class under inspection. */
struct MemberInfo
{
    std::string name;
    int line = 0;
    bool isMutex = false;
    bool isAtomic = false;
    bool isConst = false;
    bool annotated = false;
};

/** Classify one `...;` statement at class-body depth. */
bool
classifyMember(const std::vector<const Token *> &stmt, MemberInfo &m)
{
    static const std::set<std::string_view> kSkipLead = {
        "using", "typedef", "friend",  "static", "enum",
        "class", "struct",  "template", "operator", "union",
    };
    static const std::set<std::string_view> kMutexNames = {
        "mutex", "Mutex", "shared_mutex", "recursive_mutex",
    };
    // Strip AITAX_* annotation macros (and their argument lists) so
    // their parentheses do not read as a function declarator.
    std::vector<const Token *> stripped;
    for (std::size_t i = 0; i < stmt.size(); ++i) {
        const Token &t = *stmt[i];
        if (t.kind == TokKind::Identifier &&
            t.text.rfind("AITAX_", 0) == 0) {
            if (t.text == "AITAX_GUARDED_BY" ||
                t.text == "AITAX_PT_GUARDED_BY")
                m.annotated = true;
            if (i + 1 < stmt.size() && viewPunct(stmt, i + 1, "(")) {
                int depth = 0;
                ++i;
                for (; i < stmt.size(); ++i) {
                    if (viewPunct(stmt, i, "("))
                        ++depth;
                    else if (viewPunct(stmt, i, ")") && --depth == 0)
                        break;
                }
            }
            continue;
        }
        stripped.push_back(stmt[i]);
    }
    if (stripped.empty())
        return false;
    if (stripped[0]->kind == TokKind::Identifier &&
        kSkipLead.count(stripped[0]->text))
        return false;
    std::string lastIdent;
    int lastLine = 0;
    int angleDepth = 0;
    for (std::size_t i = 0; i < stripped.size(); ++i) {
        const Token &t = *stripped[i];
        if (t.kind == TokKind::Punct &&
            (t.text == "=" || t.text == "{"))
            break; // default member initializer
        if (t.text == "(")
            return false; // function declaration / paren declarator
        if (t.kind == TokKind::Punct) {
            if (t.text == "<")
                ++angleDepth;
            else if (t.text == ">")
                --angleDepth;
            continue;
        }
        if (t.kind != TokKind::Identifier)
            continue;
        if (kMutexNames.count(t.text))
            m.isMutex = true;
        else if (t.text == "atomic")
            m.isAtomic = true;
        else if ((t.text == "const" || t.text == "constexpr") &&
                 angleDepth == 0)
            // `const` inside template arguments (shared_ptr<const T>)
            // does not make the member immutable.
            m.isConst = true;
        lastIdent = t.text;
        lastLine = t.line;
    }
    if (lastIdent.empty())
        return false;
    m.name = lastIdent;
    m.line = lastLine;
    return true;
}

void
checkGuardedMutex(const FileContext &f, std::vector<Finding> &out)
{
    if (!f.startsWith("src/sweep/"))
        return;
    const std::vector<const Token *> v = pureCode(f.code);
    std::size_t i = 0;
    while (i < v.size()) {
        const Token &t = *v[i];
        if (t.kind != TokKind::Identifier ||
            (t.text != "class" && t.text != "struct")) {
            ++i;
            continue;
        }
        std::size_t j = i + 1;
        // Attribute-style macros between the keyword and the name.
        while (j + 1 < v.size() && v[j]->kind == TokKind::Identifier &&
               viewPunct(v, j + 1, "("))
            j = viewSkip(v, j + 1, "(", ")");
        if (j >= v.size() || v[j]->kind != TokKind::Identifier) {
            i = j;
            continue;
        }
        const std::string className(v[j]->text);
        // Find the body `{` (or `;` for a forward declaration).
        std::size_t k = j + 1;
        while (k < v.size() && !viewPunct(v, k, "{") &&
               !viewPunct(v, k, ";"))
            ++k;
        if (k >= v.size() || viewPunct(v, k, ";")) {
            i = k + 1;
            continue;
        }
        const std::size_t bodyEnd = viewSkip(v, k, "{", "}");
        // Collect member statements at body depth; nested braces
        // (inline methods, nested types) are skipped wholesale.
        std::vector<MemberInfo> members;
        std::vector<const Token *> stmt;
        std::size_t p = k + 1;
        while (p + 1 < bodyEnd) {
            if (viewPunct(v, p, "{")) {
                p = viewSkip(v, p, "{", "}");
                stmt.clear();
                continue;
            }
            if (viewPunct(v, p, ";")) {
                MemberInfo m;
                if (classifyMember(stmt, m))
                    members.push_back(std::move(m));
                stmt.clear();
                ++p;
                continue;
            }
            if (viewPunct(v, p, ":") && stmt.size() == 1 &&
                stmt[0]->kind == TokKind::Identifier) {
                stmt.clear(); // access specifier
                ++p;
                continue;
            }
            stmt.push_back(v[p]);
            ++p;
        }
        bool hasMutex = false;
        for (const MemberInfo &m : members)
            hasMutex = hasMutex || m.isMutex;
        if (hasMutex) {
            for (const MemberInfo &m : members) {
                if (m.isMutex || m.isAtomic || m.isConst || m.annotated)
                    continue;
                emit(out, f, m.line, "guarded-mutex",
                     "member `" + m.name + "` of mutex-holding "
                     "class `" + className + "` has no guard "
                     "annotation",
                     "say which mutex guards it: `AITAX_GUARDED_BY(" +
                         std::string("<mutex>") + ")` from "
                         "core/thread_annotations.h (use core::Mutex "
                         "so clang -Wthread-safety checks it), or "
                         "make it std::atomic/const if lock-free");
            }
        }
        i = bodyEnd;
    }
}

// --- unstable-sort -----------------------------------------------------

void
checkUnstableSort(const FileContext &f, std::vector<Finding> &out)
{
    if (!f.startsWith("src/"))
        return;
    for (std::size_t i = 0; i < f.code.size(); ++i) {
        if (!matchesScoped(f.code, i, "sort", true))
            continue;
        emit(out, f, f.code[i].line, "unstable-sort",
             "`std::sort` on simulation-ordered data",
             "equal keys come back in unspecified order; use "
             "std::stable_sort, or suppress with a comparator proven "
             "to be a total order over the element (full tie-break "
             "chain)");
    }
}

// --- float-accum -------------------------------------------------------

const std::vector<std::string_view> kReportPaths = {
    "src/core/", "src/stats/", "src/trace/", "src/verify/",
    "src/graph/",
};

void
checkFloatAccum(const FileContext &f, std::vector<Finding> &out)
{
    if (!f.startsWithAny(kReportPaths))
        return;
    const auto &code = f.code;
    // Pass 1: identifiers declared with single-precision type.
    std::set<std::string> floats;
    for (std::size_t i = 0; i + 1 < code.size(); ++i) {
        if (isIdent(code[i], "float") &&
            code[i + 1].kind == TokKind::Identifier)
            floats.insert(code[i + 1].text);
    }
    for (std::size_t i = 0; i + 1 < code.size(); ++i) {
        const Token &t = code[i];
        // Pass 2a: `x += ...` where x was declared float.
        if (t.kind == TokKind::Identifier && floats.count(t.text) &&
            code[i + 1].kind == TokKind::Punct &&
            code[i + 1].text == "+" && i + 2 < code.size() &&
            code[i + 2].kind == TokKind::Punct &&
            code[i + 2].text == "=") {
            emit(out, f, t.line, "float-accum",
                 "single-precision accumulation into `" + t.text + "`",
                 "report fields must accumulate in double (or "
                 "stats::Distribution) with a fixed reduction order; "
                 "float sums reorder visibly across refactors");
        }
        // Pass 2b: nondeterministic-order reductions.
        if (matchesScoped(code, i, "reduce", true) ||
            matchesScoped(code, i, "transform_reduce", true) ||
            (isIdent(t, "execution") && i >= 2 &&
             code[i - 1].text == "::" && isIdent(code[i - 2], "std"))) {
            emit(out, f, t.line, "float-accum",
                 "unordered reduction (`std::reduce`/std::execution) "
                 "in report code",
                 "reduction order must be fixed for byte-identical "
                 "reports; use std::accumulate or an explicit loop");
        }
    }
}

// --- header-guard ------------------------------------------------------

std::string
canonicalGuard(std::string_view path)
{
    std::string_view p = path;
    if (p.substr(0, 4) == "src/")
        p.remove_prefix(4);
    std::string guard = "AITAX_";
    for (char c : p) {
        if (std::isalnum(static_cast<unsigned char>(c)))
            guard.push_back(static_cast<char>(
                std::toupper(static_cast<unsigned char>(c))));
        else
            guard.push_back('_');
    }
    // "..._H_H" would result from ".h"; trim the extension part.
    if (guard.size() >= 2 && guard.substr(guard.size() - 2) == "_H")
        return guard;
    return guard + "_H";
}

/** First whitespace-delimited word of a directive body. */
std::string
directiveWord(std::string_view text, std::string_view *rest = nullptr)
{
    std::size_t b = text.find_first_not_of(" \t");
    if (b == std::string_view::npos)
        return "";
    std::size_t e = b;
    while (e < text.size() &&
           !std::isspace(static_cast<unsigned char>(text[e])))
        ++e;
    if (rest != nullptr)
        *rest = text.substr(e);
    return std::string(text.substr(b, e - b));
}

void
checkHeaderGuard(const FileContext &f, std::vector<Finding> &out)
{
    if (!f.isHeader)
        return;
    const auto &pp = f.preproc;
    for (const Token &t : pp)
        if (directiveWord(t.text) == "pragma" &&
            t.text.find("once") != std::string::npos)
            return;
    if (pp.size() < 2) {
        emit(out, f, 1, "header-guard",
             "header has no include guard",
             "add `#ifndef " + canonicalGuard(f.path) + "` / `#define` "
             "or `#pragma once`");
        return;
    }
    std::string_view rest0;
    std::string_view rest1;
    const std::string w0 = directiveWord(pp[0].text, &rest0);
    const std::string w1 = directiveWord(pp[1].text, &rest1);
    if (w0 != "ifndef" || w1 != "define") {
        emit(out, f, pp[0].line, "header-guard",
             "header does not open with an include guard",
             "the first two directives must be `#ifndef` + `#define` "
             "of the guard macro (or use `#pragma once`)");
        return;
    }
    const std::string m0 = directiveWord(rest0);
    const std::string m1 = directiveWord(rest1);
    const std::string want = canonicalGuard(f.path);
    if (m0 != m1) {
        emit(out, f, pp[1].line, "header-guard",
             "include-guard `#ifndef " + m0 + "` does not match "
             "`#define " + m1 + "`",
             "both must name " + want);
    } else if (m0 != want) {
        emit(out, f, pp[0].line, "header-guard",
             "include-guard macro `" + m0 + "` is not canonical",
             "expected `" + want + "` (AITAX_ + path, uppercased)");
    }
}

// --- include-hygiene ---------------------------------------------------

/** First-level project module dirs: includes of these must be quoted. */
const std::set<std::string_view> kModules = {
    "app",    "capture", "core",  "drivers", "faults", "graph",
    "imaging", "lint",  "models",  "postproc", "runtime", "sim",
    "soc",    "stats",  "sweep",   "tensor", "trace",   "verify",
    "bench",
};

const std::set<std::string_view> kDeprecatedCHeaders = {
    "assert.h", "ctype.h",  "errno.h",  "float.h",  "limits.h",
    "locale.h", "math.h",   "setjmp.h", "signal.h", "stdarg.h",
    "stddef.h", "stdint.h", "stdio.h",  "stdlib.h", "string.h",
    "time.h",
};

void
checkIncludeHygiene(const FileContext &f, std::vector<Finding> &out)
{
    std::set<std::string> seen;
    for (const Token &t : f.preproc) {
        std::string_view rest;
        if (directiveWord(t.text, &rest) != "include")
            continue;
        const std::size_t b = rest.find_first_not_of(" \t");
        if (b == std::string_view::npos)
            continue;
        const char open = rest[b];
        if (open != '<' && open != '"')
            continue; // computed include; out of scope
        const char close = open == '<' ? '>' : '"';
        const std::size_t e = rest.find(close, b + 1);
        if (e == std::string_view::npos)
            continue;
        const std::string target(rest.substr(b + 1, e - b - 1));

        if (!seen.insert(target).second) {
            emit(out, f, t.line, "include-hygiene",
                 "duplicate include of `" + target + "`",
                 "remove the repeated #include");
            continue;
        }
        if (open == '<' && kDeprecatedCHeaders.count(target)) {
            emit(out, f, t.line, "include-hygiene",
                 "deprecated C header `<" + target + "`>",
                 "use the <c...> C++ header instead");
            continue;
        }
        const std::size_t slash = target.find('/');
        if (open == '<' && slash != std::string::npos &&
            kModules.count(target.substr(0, slash))) {
            emit(out, f, t.line, "include-hygiene",
                 "project header `" + target +
                     "` included with angle brackets",
                 "use `#include \"" + target + "\"` for in-repo "
                 "headers");
        }
    }
}

const std::vector<Rule> kRules = {
    {"float-accum",
     "no float accumulation / unordered reductions in report fields",
     "single-precision or reduction-order-dependent sums change "
     "byte-for-byte when code is reordered, breaking golden traces",
     checkFloatAccum},
    {"guarded-mutex",
     "mutex-holding classes in src/sweep/ annotate guarded state",
     "the sweep tier is the only place threads touch shared state; "
     "AITAX_GUARDED_BY makes the lock protocol explicit and lets "
     "clang -Wthread-safety verify every access",
     checkGuardedMutex},
    {"header-guard",
     "headers carry a canonical AITAX_* include guard or #pragma once",
     "duplicate/mismatched guards cause ODR surprises and silently "
     "skipped declarations",
     checkHeaderGuard},
    {"include-hygiene",
     "no duplicate includes, no deprecated C headers, quoted project "
     "includes",
     "keeps the include graph predictable so tooling (and this "
     "linter) can reason about what each TU sees",
     checkIncludeHygiene},
    {"raw-new-delete",
     "no raw new/delete in src/sim// src/soc/ hot paths",
     "per-event heap traffic is the probe-effect tax the paper warns "
     "about; arenas and inline buffers keep the hot path "
     "allocation-free",
     checkNewDelete},
    {"raw-random",
     "no rand()/std::random_device/std distributions outside "
     "src/sim/random",
     "unseeded or implementation-defined RNG breaks replay from a "
     "root seed (the paper hit libc++ vs libstdc++ divergence)",
     checkRawRandom},
    {"std-function",
     "no std::function in src/sim// src/soc/ hot paths",
     "std::function heap-allocates typical captures; sim::EventFn "
     "keeps per-event callbacks in situ",
     checkStdFunction},
    {"unordered-container",
     "no std::unordered_* in src/ without a never-iterated rationale",
     "hash-map iteration order is libc- and size-dependent; iterating "
     "one into a trace/report/serializer makes output "
     "implementation-defined",
     checkUnordered},
    {"unstable-sort",
     "std::sort needs a total order or stable_sort",
     "equal-key order from std::sort is unspecified; ties leak "
     "nondeterminism into rendered reports",
     checkUnstableSort},
    {"wall-clock",
     "no wall-clock reads outside src/sweep/ and bench/",
     "wall time varies run to run; simulated latencies must come from "
     "virtual time so traces replay bit-identically",
     checkWallClock},
};

} // namespace

const std::vector<Rule> &
allRules()
{
    return kRules;
}

const Rule *
findRule(std::string_view id)
{
    for (const Rule &r : kRules)
        if (r.id == id)
            return &r;
    return nullptr;
}

} // namespace aitax::lint
