/**
 * @file
 * Whole-value parsing of numeric command-line arguments, for the
 * tools and examples: a value that strtoull/strtod would read only in
 * part (or not at all), or one out of the argument's range, is
 * refused with the program's usage text instead of quietly becoming
 * 0, its numeric prefix or a default, or aborting the run.
 */

#ifndef CAPY_SIM_CLI_HH
#define CAPY_SIM_CLI_HH

#include <cerrno>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstdlib>

namespace capy::sim
{

/** @p text as a whole unsigned decimal number; when any of it is
 *  left over, it is negative or it does not fit, print @p usage to
 *  stderr and exit 2. */
inline std::uint64_t
parseCount(const char *text, const char *usage)
{
    char *end = nullptr;
    errno = 0;
    std::uint64_t v = std::strtoull(text, &end, 10);
    if (end == text || *end != '\0' || errno == ERANGE ||
        text[0] == '-') {
        std::fprintf(stderr, "not a count: '%s'\n%s", text, usage);
        std::exit(2);
    }
    return v;
}

/** @p text as a whole finite number; otherwise print @p usage to
 *  stderr and exit 2. */
inline double
parseNumber(const char *text, const char *usage)
{
    char *end = nullptr;
    errno = 0;
    double v = std::strtod(text, &end);
    if (end == text || *end != '\0' || errno == ERANGE ||
        !std::isfinite(v)) {
        std::fprintf(stderr, "not a number: '%s'\n%s", text, usage);
        std::exit(2);
    }
    return v;
}

/** Unless @p value > @p floor, print why and @p usage to stderr and
 *  exit 2; @p what names the argument. */
inline void
requireAbove(double value, double floor, const char *what,
             const char *usage)
{
    if (!(value > floor)) {
        std::fprintf(stderr, "%s must be above %g, not %g\n%s", what,
                     floor, value, usage);
        std::exit(2);
    }
}

} // namespace capy::sim

#endif // CAPY_SIM_CLI_HH
