#include "support/parse.hpp"

#include "support/error.hpp"

namespace postal {

std::uint64_t parse_uint(const std::string& text, const std::string& what,
                         std::uint64_t min, std::uint64_t max) {
  bool ok = !text.empty();
  std::uint64_t value = 0;
  for (const char c : text) {
    const auto digit = static_cast<std::uint64_t>(c - '0');
    if (c < '0' || c > '9' ||
        value > (std::numeric_limits<std::uint64_t>::max() - digit) / 10) {
      ok = false;
      break;
    }
    value = value * 10 + digit;
  }
  if (!ok || value < min || value > max) {
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
  return value;
}

}  // namespace postal
