// Tests for reduction/combining: the time-reversed BCAST schedule, its
// optimality (f_lambda(n)), and the dedicated reduce validator including
// negative cases.
#include "collectives/reduce.hpp"

#include <gtest/gtest.h>

#include <tuple>

#include "model/genfib.hpp"
#include "test_util.hpp"

namespace postal {
namespace {

class ReduceSweep
    : public ::testing::TestWithParam<std::pair<std::uint64_t, Rational>> {};

TEST_P(ReduceSweep, ValidAndCompletesAtIndexFunction) {
  const auto& [n, lambda] = GetParam();
  const PostalParams params(n, lambda);
  const Schedule s = reduce_schedule(params);
  const ReduceReport report = validate_reduce(s, params);
  ASSERT_TRUE(report.ok) << (report.violations.empty() ? "" : report.violations[0]);
  GenFib fib(lambda);
  EXPECT_EQ(report.completion, fib.f(n));
  EXPECT_EQ(report.completion, predict_reduce(params));
}

INSTANTIATE_TEST_SUITE_P(
    Grid, ReduceSweep,
    ::testing::Values(std::pair<std::uint64_t, Rational>{2, Rational(2)},
                      std::pair<std::uint64_t, Rational>{14, Rational(5, 2)},
                      std::pair<std::uint64_t, Rational>{64, Rational(1)},
                      std::pair<std::uint64_t, Rational>{100, Rational(3)},
                      std::pair<std::uint64_t, Rational>{33, Rational(9, 4)},
                      std::pair<std::uint64_t, Rational>{7, Rational(10)}),
    [](const auto& pinfo) {
      return test::cat("n", std::to_string(pinfo.param.first), "_lam",
                       std::to_string(pinfo.param.second.num()), "_",
                       std::to_string(pinfo.param.second.den()));
    });

TEST(Reduce, SingleProcessorEmpty) {
  const PostalParams params(1, Rational(2));
  EXPECT_TRUE(reduce_schedule(params).empty());
  EXPECT_EQ(predict_reduce(params), Rational(0));
  const ReduceReport report = validate_reduce(Schedule(), params);
  EXPECT_TRUE(report.ok);
}

TEST(Reduce, EveryNonRootSendsExactlyOnce) {
  const PostalParams params(30, Rational(5, 2));
  const Schedule s = reduce_schedule(params);
  EXPECT_EQ(s.size(), params.n() - 1);
  const auto counts = s.sends_per_proc(params.n());
  EXPECT_EQ(counts[0], 0u);
  for (ProcId p = 1; p < params.n(); ++p) EXPECT_EQ(counts[p], 1u) << "p=" << p;
}

TEST(ReduceValidator, RejectsRootSending) {
  Schedule s;
  s.add(0, 1, 0, Rational(0));
  s.add(1, 0, 1, Rational(2));
  const ReduceReport report = validate_reduce(s, PostalParams(2, Rational(2)));
  ASSERT_FALSE(report.ok);
}

TEST(ReduceValidator, RejectsDoubleSend) {
  Schedule s;
  s.add(1, 0, 1, Rational(0));
  s.add(1, 0, 1, Rational(1));
  const ReduceReport report = validate_reduce(s, PostalParams(2, Rational(2)));
  ASSERT_FALSE(report.ok);
}

TEST(ReduceValidator, RejectsMissingContribution) {
  Schedule s;
  s.add(1, 0, 1, Rational(0));
  const ReduceReport report = validate_reduce(s, PostalParams(3, Rational(2)));
  ASSERT_FALSE(report.ok);
}

TEST(ReduceValidator, RejectsLateContribution) {
  // p2's value arrives at p1 only after p1 already forwarded its partial.
  Schedule s;
  s.add(1, 0, 1, Rational(0));
  s.add(2, 1, 2, Rational(1));  // arrives at 3 > 0
  const ReduceReport report = validate_reduce(s, PostalParams(3, Rational(2)));
  ASSERT_FALSE(report.ok);
  bool found = false;
  for (const auto& v : report.violations) {
    found |= v.find("already sent") != std::string::npos;
  }
  EXPECT_TRUE(found);
}

TEST(ReduceValidator, AcceptsChainWithExactTimings) {
  // p2 -> p1 at t=0 (arrives 2), p1 -> p0 at t=2 (arrives 4): valid chain.
  Schedule s;
  s.add(2, 1, 2, Rational(0));
  s.add(1, 0, 1, Rational(2));
  const ReduceReport report = validate_reduce(s, PostalParams(3, Rational(2)));
  ASSERT_TRUE(report.ok) << (report.violations.empty() ? "" : report.violations[0]);
  EXPECT_EQ(report.completion, Rational(4));
}

TEST(ReduceValidator, RejectsReceivePortOverload) {
  // Two partials arrive at the root with overlapping receive windows.
  Schedule s;
  s.add(1, 0, 1, Rational(0));
  s.add(2, 0, 2, Rational(1, 2));
  const ReduceReport report = validate_reduce(s, PostalParams(3, Rational(2)));
  ASSERT_FALSE(report.ok);
}

TEST(Reduce, ReductionMirrorsBroadcastTimes) {
  // Optimal combining takes exactly as long as optimal broadcasting, for
  // every n and lambda (the time-reversal symmetry the paper inherits
  // from [6]).
  for (const Rational lambda : {Rational(1), Rational(5, 2), Rational(4)}) {
    GenFib fib(lambda);
    for (std::uint64_t n = 2; n <= 128; n = n * 2 + 1) {
      const PostalParams params(n, lambda);
      const ReduceReport report = validate_reduce(reduce_schedule(params), params);
      ASSERT_TRUE(report.ok) << "n=" << n;
      EXPECT_EQ(report.completion, fib.f(n)) << "n=" << n;
    }
  }
}

}  // namespace
}  // namespace postal
