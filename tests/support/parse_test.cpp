// The typed unsigned-integer parser (support/parse.hpp): exact values
// inside the range, and a typed error naming the argument for everything
// else -- no wrap, no truncation, no stopping at trailing junk.
#include <cstdint>
#include <limits>
#include <string>

#include <gtest/gtest.h>

#include "support/error.hpp"
#include "support/parse.hpp"
#include "test_util.hpp"

namespace postal {
namespace {

constexpr std::uint64_t kMax = std::numeric_limits<std::uint64_t>::max();

TEST(ParseUint, AcceptsDigitsInsideTheRange) {
  EXPECT_EQ(parse_uint("0", "x"), 0U);
  EXPECT_EQ(parse_uint("42", "x"), 42U);
  EXPECT_EQ(parse_uint("007", "x"), 7U);
  EXPECT_EQ(parse_uint("18446744073709551615", "x"), kMax);
  EXPECT_EQ(parse_uint("1", "n", 1), 1U);
  EXPECT_EQ(parse_uint("1024", "threads", 1, 1024), 1024U);
  EXPECT_EQ(parse_uint("4294967295", "rank", 0, 0xffffffffULL), 0xffffffffULL);
}

TEST(ParseUint, RejectsEverythingElseWithATypedError) {
  struct Case {
    const char* text;
    std::uint64_t min;
    std::uint64_t max;
  };
  const Case cases[] = {
      {"", 0, kMax},
      {"12abc", 0, kMax},               // trailing junk
      {"-3", 0, kMax},                  // a sign never wraps
      {"+3", 0, kMax},
      {" 3", 0, kMax},
      {"3 ", 0, kMax},
      {"0x10", 0, kMax},
      {"2.5", 0, kMax},
      {"18446744073709551616", 0, kMax},  // 2^64
      {"99999999999999999999", 0, kMax},
      {"0", 1, kMax},                   // below the minimum
      {"4294967296", 0, 0xffffffffULL},  // 2^32: no truncation to 0
      {"4294967297", 1, 1024},          // no truncation to 1
      {"1025", 1, 1024},
  };
  for (const Case& c : cases) {
    try {
      static_cast<void>(parse_uint(c.text, "--arg", c.min, c.max));
      ADD_FAILURE() << "accepted '" << c.text << "'";
    } catch (const InvalidArgument& e) {
      const std::string what = e.what();
      EXPECT_EQ(what.rfind("--arg: ", 0), 0U) << what;
      EXPECT_NE(what.find(test::cat("'", c.text, "'")), std::string::npos) << what;
      EXPECT_NE(what.find(test::cat("[", std::to_string(c.min), ", ",
                                    std::to_string(c.max), "]")),
                std::string::npos)
          << what;
    }
  }
}

}  // namespace
}  // namespace postal
