/**
 * @file
 * Locale-independent number formatting/parsing.
 *
 * The campaign protocol and the checkpoint manifest round-trip doubles
 * as text. printf("%.17g") and strtod/sscanf("%lf") are both
 * sensitive to LC_NUMERIC: under a comma-decimal locale (de_DE et al.)
 * the formatter emits "1,5" (a corrupted aggregate once the parser
 * stops at the comma). Every protocol and manifest number therefore
 * goes through these helpers, which use std::to_chars/std::from_chars
 * — the only standard facilities guaranteed to ignore the global
 * locale.
 *
 * The formatters are byte-compatible with the historical printf
 * format in the C locale: to_chars with chars_format::general and a
 * precision P is specified to print "as if by printf %.Pg" with '.'
 * as the decimal point. So formatG17/appendG17 write "%.17g"
 * (manifests written by earlier versions parse unchanged and goldens
 * keep their exact bytes).
 */

#ifndef AITAX_STATS_NUMFMT_H
#define AITAX_STATS_NUMFMT_H

#include <charconv>
#include <cstdint>
#include <cstring>
#include <string>
#include <system_error>

namespace aitax::stats {

/** Shortest-17-significant-digit form of @p v; C-locale bytes. */
inline std::string
formatG17(double v)
{
    char buf[64];
    const auto r = std::to_chars(buf, buf + sizeof(buf), v,
                                 std::chars_format::general, 17);
    return std::string(buf, r.ptr);
}

/** Append formatG17(@p v) to @p out without a temporary string. */
inline void
appendG17(std::string &out, double v)
{
    char buf[64];
    const auto r = std::to_chars(buf, buf + sizeof(buf), v,
                                 std::chars_format::general, 17);
    out.append(buf, r.ptr);
}

/**
 * Parse a double at @p p (skipping leading spaces), advancing @p p
 * past the consumed token. Locale-independent: only '.' is a decimal
 * point, so "1,5" parses as 1.0 leaving ",5" — exactly the C-locale
 * strtod behaviour the protocol was specified against.
 * @return false (leaving @p p at the token start) on no parse.
 */
inline bool
parseDouble(const char *&p, double &out)
{
    while (*p == ' ')
        ++p;
    const char *end = p + std::strlen(p);
    const auto r =
        std::from_chars(p, end, out, std::chars_format::general);
    if (r.ec != std::errc())
        return false;
    p = r.ptr;
    return true;
}

/** Integer flavours of parseDouble (from_chars, base 10). */
inline bool
parseU64(const char *&p, std::uint64_t &out)
{
    while (*p == ' ')
        ++p;
    const char *end = p + std::strlen(p);
    const auto r = std::from_chars(p, end, out, 10);
    if (r.ec != std::errc())
        return false;
    p = r.ptr;
    return true;
}

inline bool
parseI64(const char *&p, std::int64_t &out)
{
    while (*p == ' ')
        ++p;
    const char *end = p + std::strlen(p);
    const auto r = std::from_chars(p, end, out, 10);
    if (r.ec != std::errc())
        return false;
    p = r.ptr;
    return true;
}

inline bool
parseInt(const char *&p, int &out)
{
    std::int64_t wide = 0;
    const char *save = p;
    if (!parseI64(p, wide) || wide < INT32_MIN || wide > INT32_MAX) {
        p = save;
        return false;
    }
    out = static_cast<int>(wide);
    return true;
}

namespace detail {

template <typename T>
bool
parseWholeWith(bool (*parse)(const char *&, T &), const char *text,
               T &out)
{
    const char *p = text;
    T parsed{};
    if (!parse(p, parsed) || *p != '\0')
        return false;
    out = parsed;
    return true;
}

} // namespace detail

/**
 * Whole-value parse of a flag or spec value: the parser above must
 * consume all of @p text, so "64x", "5s", "", out-of-range values
 * and, for the unsigned overload, "-1" are refused.
 * @return false (leaving @p out untouched) on any of those.
 */
inline bool
parseWhole(const char *text, int &out)
{
    return detail::parseWholeWith(&parseInt, text, out);
}

inline bool
parseWhole(const char *text, std::uint64_t &out)
{
    return detail::parseWholeWith(&parseU64, text, out);
}

inline bool
parseWhole(const char *text, double &out)
{
    return detail::parseWholeWith(&parseDouble, text, out);
}

} // namespace aitax::stats

#endif // AITAX_STATS_NUMFMT_H
