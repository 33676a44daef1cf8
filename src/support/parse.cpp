#include "support/parse.hpp"

#include "support/error.hpp"

namespace postal {

Digits scan_digits(std::string_view text) {
  Digits out;
  out.ok = !text.empty();
  for (const char c : text) {
    if (c < '0' || c > '9') {
      out.ok = false;
      break;
    }
    const auto digit = static_cast<std::uint64_t>(c - '0');
    if (out.value > (std::numeric_limits<std::uint64_t>::max() - digit) / 10) {
      out.overflow = true;
    }
    out.value = out.value * 10 + digit;
  }
  return out;
}

std::uint64_t parse_uint(const std::string& text, const std::string& what,
                         std::uint64_t min, std::uint64_t max) {
  const Digits digits = scan_digits(text);
  if (!digits.ok || digits.overflow || digits.value < min || digits.value > max) {
    std::string message = what;
    message.append(": expected an integer in [")
        .append(std::to_string(min))
        .append(", ")
        .append(std::to_string(max))
        .append("], got '")
        .append(text)
        .append("'");
    throw InvalidArgument(message);
  }
  return digits.value;
}

}  // namespace postal
