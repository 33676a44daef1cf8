// Tests for the full LogP machine: the optimal schedule validates under
// every LogP rule, completes at exactly logp_broadcast_time (== the greedy
// frontier optimum), and broken schedules are rejected.
#include "sched/logp_machine.hpp"

#include <gtest/gtest.h>

#include <tuple>

#include "test_util.hpp"

namespace postal {
namespace {

struct LogPCase {
  Rational L, o, g;
  std::uint64_t P;
};

class LogPMachineSweep : public ::testing::TestWithParam<LogPCase> {};

TEST_P(LogPMachineSweep, OptimalScheduleValidAndMatchesClosedForm) {
  const auto& [L, o, g, P] = GetParam();
  const LogPParams params{L, o, g, P};
  const Schedule s = logp_bcast_schedule(params);
  const LogPReport report = validate_logp_schedule(s, params);
  ASSERT_TRUE(report.ok) << (report.violations.empty() ? "" : report.violations[0]);
  EXPECT_EQ(report.completion, logp_broadcast_time(params));
  EXPECT_EQ(report.completion, logp_broadcast_time_dp(params));
  EXPECT_EQ(s.size(), P - 1);
}

INSTANTIATE_TEST_SUITE_P(
    Grid, LogPMachineSweep,
    ::testing::Values(LogPCase{Rational(0), Rational(1, 2), Rational(1), 64},
                      LogPCase{Rational(4), Rational(1), Rational(2), 100},
                      LogPCase{Rational(10), Rational(2), Rational(1), 33},
                      LogPCase{Rational(15, 2), Rational(1, 2), Rational(5, 2), 17},
                      LogPCase{Rational(1), Rational(0), Rational(1), 256},
                      LogPCase{Rational(6), Rational(3), Rational(1), 50}),
    [](const ::testing::TestParamInfo<LogPCase>& pinfo) {
      return test::cat("L", std::to_string(pinfo.param.L.num()), "_",
                       std::to_string(pinfo.param.L.den()), "_o",
                       std::to_string(pinfo.param.o.num()), "_",
                       std::to_string(pinfo.param.o.den()), "_g",
                       std::to_string(pinfo.param.g.num()), "_",
                       std::to_string(pinfo.param.g.den()), "_P",
                       std::to_string(pinfo.param.P));
    });

TEST(LogPMachine, RejectsSubmissionsCloserThanGap) {
  const LogPParams params{Rational(4), Rational(1), Rational(2), 4};
  Schedule s;
  s.add(0, 1, 0, Rational(0));
  s.add(0, 2, 0, Rational(1));  // gap is max(1, 2) = 2
  s.add(0, 3, 0, Rational(4));
  const LogPReport report = validate_logp_schedule(s, params);
  ASSERT_FALSE(report.ok);
  EXPECT_NE(report.violations[0].find("submissions"), std::string::npos);
}

TEST(LogPMachine, RejectsPrematureForwarding) {
  // Message usable at 2o + L = 6; forwarding at 5 is illegal.
  const LogPParams params{Rational(4), Rational(1), Rational(2), 3};
  Schedule s;
  s.add(0, 1, 0, Rational(0));
  s.add(1, 2, 0, Rational(5));
  const LogPReport report = validate_logp_schedule(s, params);
  ASSERT_FALSE(report.ok);
}

TEST(LogPMachine, ForwardingAtExactUsabilityIsLegal) {
  const LogPParams params{Rational(4), Rational(1), Rational(2), 3};
  Schedule s;
  s.add(0, 1, 0, Rational(0));
  s.add(1, 2, 0, Rational(6));
  const LogPReport report = validate_logp_schedule(s, params);
  EXPECT_TRUE(report.ok) << (report.violations.empty() ? "" : report.violations[0]);
}

TEST(LogPMachine, RejectsAbsorptionPileUp) {
  // Two messages converging on p2 with usability times 1 apart < gap 2.
  const LogPParams params{Rational(4), Rational(1), Rational(2), 4};
  Schedule s;
  s.add(0, 2, 0, Rational(0));   // usable at p2 at 6
  s.add(0, 1, 0, Rational(2));   // usable at p1 at 8 (causality ok)
  s.add(1, 2, 0, Rational(9));   // usable at p2 at 15 -- fine
  s.add(0, 3, 0, Rational(4));
  const LogPReport ok_report = validate_logp_schedule(s, params);
  ASSERT_TRUE(ok_report.ok)
      << (ok_report.violations.empty() ? "" : ok_report.violations[0]);

  Schedule bad = s;
  bad.add(1, 2, 0, Rational(10));  // usable at 16, 1 < gap after 15
  const LogPReport report = validate_logp_schedule(bad, params);
  ASSERT_FALSE(report.ok);
  bool found = false;
  for (const auto& v : report.violations) {
    found |= v.find("absorptions") != std::string::npos;
  }
  EXPECT_TRUE(found);
}

TEST(LogPMachine, CpuBoundGapDominates) {
  // o = 3 > g = 1: submissions must be >= 3 apart.
  const LogPParams params{Rational(6), Rational(3), Rational(1), 4};
  Schedule s;
  s.add(0, 1, 0, Rational(0));
  s.add(0, 2, 0, Rational(2));  // < o apart
  s.add(0, 3, 0, Rational(6));
  const LogPReport report = validate_logp_schedule(s, params);
  ASSERT_FALSE(report.ok);
}

TEST(LogPMachine, PostalTreeShapeTransfersToLogP) {
  // The LogP-optimal tree at lambda = (L+2o)/G has the same topology as
  // the postal Fibonacci tree at that lambda.
  const LogPParams params{Rational(4), Rational(1, 2), Rational(1), 14};
  // lambda = (4 + 1)/1 = 5.
  GenFib fib(Rational(5));
  const Schedule s = logp_bcast_schedule(params);
  EXPECT_EQ(validate_logp_schedule(s, params).completion,
            params.effective_gap() * fib.f(14));
}

}  // namespace
}  // namespace postal
