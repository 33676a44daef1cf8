// Shared helpers for the postal test suite.
#pragma once

#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <string>

#include <gtest/gtest.h>

#include "faults/fault_plan.hpp"

/// EXPECT_THROW for [[nodiscard]] expressions (gtest discards the value).
#define POSTAL_EXPECT_THROW(expr, exception_type) \
  EXPECT_THROW(static_cast<void>(expr), exception_type)

namespace postal::test {

/// Concatenates string pieces by appending. Use it instead of
/// "literal" + std::to_string(...): GCC 12 at -O3 reports a false
/// -Werror=restrict inside that operator+, which breaks Release builds.
template <typename... Parts>
std::string cat(const Parts&... parts) {
  std::string out;
  (out.append(parts), ...);
  return out;
}

/// Failure count of the currently running test, for detecting whether one
/// chaos scenario inside a loop failed (compare before/after).
inline int failure_part_count() {
  const auto* info = ::testing::UnitTest::GetInstance()->current_test_info();
  return info == nullptr ? 0 : info->result()->total_part_count();
}

/// Dump a failing chaos scenario so it can be reproduced offline: the seed
/// and the fully resolved fault plan go to stderr, and -- when the
/// POSTAL_CHAOS_ARTIFACTS environment variable names a directory (CI's
/// failing-seed artifact upload) -- the plan JSON is also written to
/// <dir>/<tag>.json. `tag` is sanitized to [A-Za-z0-9._-] for the filename.
inline void dump_chaos_artifact(const std::string& tag, std::uint64_t seed,
                                const FaultPlan& plan) {
  const std::string json = fault_plan_to_json(plan);
  std::fprintf(stderr, "[chaos] FAILING scenario %s seed=%llu\n", tag.c_str(),
               static_cast<unsigned long long>(seed));
  std::fprintf(stderr, "[chaos] resolved plan: %s\n", json.c_str());
  const char* dir = std::getenv("POSTAL_CHAOS_ARTIFACTS");
  if (dir == nullptr || *dir == '\0') return;
  std::string name;
  for (const char c : tag) {
    const bool keep = (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') ||
                      (c >= '0' && c <= '9') || c == '.' || c == '_' || c == '-';
    name.push_back(keep ? c : '_');
  }
  const std::string path = std::string(dir) + "/" + name + ".json";
  std::ofstream out(path);
  if (out) {
    out << json << "\n";
    std::fprintf(stderr, "[chaos] plan written to %s\n", path.c_str());
  }
}

}  // namespace postal::test
