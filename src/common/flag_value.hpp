#pragma once

/**
 * @file
 * Strict numeric values from the command line and the environment: the
 * flags of cosad, cosactl and the examples, and the benches'
 * COSA_TIME_LIMIT.
 */

#include <charconv>
#include <cstdlib>
#include <cstring>
#include <limits>
#include <sstream>
#include <string>
#include <type_traits>

#include "common/logging.hpp"

namespace cosa {

/**
 * All of @p text parsed as a T within [@p lo, @p hi]. An empty,
 * non-numeric, partly numeric or out-of-range value is fatal, and the
 * message names @p what (a flag, an argument or a variable).
 */
template <typename T>
T
numberValue(const std::string& what, const char* text,
            T lo = std::numeric_limits<T>::lowest(),
            T hi = std::numeric_limits<T>::max())
{
    const char* const end = text + std::strlen(text);
    T value{};
    const auto [ptr, ec] = std::from_chars(text, end, value);
    // The negated range test also rejects a NaN.
    if (ec != std::errc() || ptr != end || text == end ||
        !(value >= lo && value <= hi)) {
        const bool has_lo = lo != std::numeric_limits<T>::lowest();
        const bool has_hi = hi != std::numeric_limits<T>::max();
        std::ostringstream want;
        want.precision(15); // 1000000 rather than 1e+06
        want << (std::is_integral_v<T> ? "an integer" : "a number");
        if (has_lo && has_hi)
            want << " in [" << lo << ", " << hi << "]";
        else if (has_lo)
            want << " >= " << lo;
        else if (has_hi)
            want << " <= " << hi;
        fatal(what, " needs ", want.str(), ", got '", text, "'");
    }
    return value;
}

/**
 * The value of the numeric flag argv[a]: numberValue() of argv[a + 1],
 * named after the flag like an unknown flag. Advances @p a to the
 * value.
 */
template <typename T>
T
flagValue(char** argv, int& a, T lo = std::numeric_limits<T>::lowest(),
          T hi = std::numeric_limits<T>::max())
{
    const std::string flag = std::string("flag '") + argv[a] + "'";
    return numberValue(flag, argv[++a], lo, hi);
}

/** Environment variable @p name as numberValue() within [@p lo, @p hi];
 *  @p fallback when it is unset. */
template <typename T>
T
envValue(const char* name, T fallback, T lo, T hi)
{
    const char* const text = std::getenv(name);
    return text ? numberValue(std::string(name), text, lo, hi) : fallback;
}

} // namespace cosa
