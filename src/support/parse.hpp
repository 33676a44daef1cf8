// Typed parsing of unsigned integers from text (command-line arguments,
// workload specs, fault-plan files, and the digit runs of Rational::parse).
#pragma once

#include <cstdint>
#include <limits>
#include <string>
#include <string_view>

namespace postal {

/// A run of base-10 digits read as an unsigned integer.
struct Digits {
  bool ok = false;        ///< nonempty and nothing but '0'..'9'
  bool overflow = false;  ///< above 2^64 - 1; `value` is then meaningless
  std::uint64_t value = 0;
};

/// Reads all of `text` as a run of base-10 digits: no sign, no space, no
/// trailing junk.
[[nodiscard]] Digits scan_digits(std::string_view text);

/// Parse `text` as a base-10 unsigned integer in [min, max]. Throws
/// InvalidArgument naming `what` on an empty string, a sign, any other
/// non-digit, or a value outside the range: nothing wraps, truncates, or
/// stops early at trailing junk.
[[nodiscard]] std::uint64_t parse_uint(
    const std::string& text, const std::string& what, std::uint64_t min = 0,
    std::uint64_t max = std::numeric_limits<std::uint64_t>::max());

}  // namespace postal
