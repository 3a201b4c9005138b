#pragma once

/**
 * @file
 * Strict numeric command-line values for cosad and cosactl.
 */

#include <charconv>
#include <cstring>
#include <limits>
#include <string>
#include <type_traits>

#include "common/logging.hpp"

namespace cosa::tools {

/**
 * The value of the numeric flag argv[a]: all of argv[a + 1] must parse
 * as a T within [@p lo, @p hi]. An empty, non-numeric, partly numeric
 * or out-of-range value is fatal and names the flag, like an unknown
 * flag. Advances @p a to the value.
 */
template <typename T>
T
flagValue(char** argv, int& a, T lo = std::numeric_limits<T>::lowest(),
          T hi = std::numeric_limits<T>::max())
{
    const char* const flag = argv[a];
    const char* const text = argv[++a];
    const char* const end = text + std::strlen(text);
    T value{};
    const auto [ptr, ec] = std::from_chars(text, end, value);
    // The negated range test also rejects a NaN.
    if (ec != std::errc() || ptr != end || text == end ||
        !(value >= lo && value <= hi)) {
        std::string want = std::is_integral_v<T> ? "an integer" : "a number";
        if (lo != std::numeric_limits<T>::lowest() ||
            hi != std::numeric_limits<T>::max())
            want += " in [" + std::to_string(lo) + ", " +
                    std::to_string(hi) + "]";
        fatal("flag '", flag, "' needs ", want, ", got '", text, "'");
    }
    return value;
}

} // namespace cosa::tools
