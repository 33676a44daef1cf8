// Typed parsing of unsigned integers from text (command-line arguments,
// workload specs, fault-plan files).
#pragma once

#include <cstdint>
#include <limits>
#include <string>

namespace postal {

/// Parse `text` as a base-10 unsigned integer in [min, max]. Throws
/// InvalidArgument naming `what` on an empty string, a sign, any other
/// non-digit, or a value outside the range: nothing wraps, truncates, or
/// stops early at trailing junk.
[[nodiscard]] std::uint64_t parse_uint(
    const std::string& text, const std::string& what, std::uint64_t min = 0,
    std::uint64_t max = std::numeric_limits<std::uint64_t>::max());

}  // namespace postal
