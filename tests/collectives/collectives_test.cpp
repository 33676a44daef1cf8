// Tests for scatter, gather, allgather, and barrier in the postal model.
#include <gtest/gtest.h>

#include <tuple>

#include "collectives/allgather.hpp"
#include "collectives/barrier.hpp"
#include "collectives/reduce.hpp"
#include "collectives/scatter.hpp"
#include "model/genfib.hpp"
#include "sim/validator.hpp"
#include "test_util.hpp"

namespace postal {
namespace {

// ---------------------------------------------------------------------------
// Scatter / gather
// ---------------------------------------------------------------------------

class ScatterSweep
    : public ::testing::TestWithParam<std::pair<std::uint64_t, Rational>> {};

TEST_P(ScatterSweep, ScatterMeetsItsLowerBoundExactly) {
  const auto& [n, lambda] = GetParam();
  const PostalParams params(n, lambda);
  const Schedule s = scatter_schedule(params);
  const SimReport report = validate_schedule(s, params, scatter_goal(params));
  ASSERT_TRUE(report.ok) << report.summary();
  EXPECT_EQ(report.makespan, predict_scatter(params));
  EXPECT_EQ(report.makespan, scatter_gather_lower_bound(params));
}

TEST_P(ScatterSweep, GatherMeetsItsLowerBoundExactly) {
  const auto& [n, lambda] = GetParam();
  const PostalParams params(n, lambda);
  const Schedule s = gather_schedule(params);
  const SimReport report = validate_schedule(s, params, gather_goal(params));
  ASSERT_TRUE(report.ok) << report.summary();
  EXPECT_EQ(report.makespan, predict_gather(params));
}

INSTANTIATE_TEST_SUITE_P(
    Grid, ScatterSweep,
    ::testing::Values(std::pair<std::uint64_t, Rational>{2, Rational(2)},
                      std::pair<std::uint64_t, Rational>{14, Rational(5, 2)},
                      std::pair<std::uint64_t, Rational>{64, Rational(1)},
                      std::pair<std::uint64_t, Rational>{40, Rational(17, 4)}),
    [](const auto& pinfo) {
      return test::cat("n", std::to_string(pinfo.param.first), "_lam",
                       std::to_string(pinfo.param.second.num()), "_",
                       std::to_string(pinfo.param.second.den()));
    });

TEST(Scatter, SingleProcessorDegenerate) {
  const PostalParams params(1, Rational(2));
  EXPECT_TRUE(scatter_schedule(params).empty());
  EXPECT_EQ(predict_scatter(params), Rational(0));
}

TEST(Scatter, PersonalizedMessagesGoToTheRightPlaces) {
  const PostalParams params(6, Rational(3));
  const Schedule s = scatter_schedule(params);
  for (const SendEvent& e : s.events()) {
    EXPECT_EQ(e.src, 0u);
    EXPECT_EQ(e.dst, e.msg + 1);
  }
}

TEST(Gather, ArrivalsLandBackToBackAtRoot) {
  const PostalParams params(6, Rational(3));
  const Schedule s = gather_schedule(params);
  const SimReport report = validate_schedule(s, params, gather_goal(params));
  ASSERT_TRUE(report.ok) << report.summary();
  // Arrivals at lambda, lambda+1, ..., lambda+n-2: receive port saturated.
  for (const SendEvent& e : s.events()) {
    EXPECT_EQ(e.t + params.lambda(),
              params.lambda() + Rational(static_cast<std::int64_t>(e.msg)));
  }
}

// ---------------------------------------------------------------------------
// Allgather
// ---------------------------------------------------------------------------

class AllgatherSweep
    : public ::testing::TestWithParam<std::pair<std::uint64_t, Rational>> {};

TEST_P(AllgatherSweep, DirectExchangeIsValidAndOptimal) {
  const auto& [n, lambda] = GetParam();
  const PostalParams params(n, lambda);
  const Schedule s = allgather_direct_schedule(params);
  const SimReport report = validate_schedule(s, params, allgather_goal(params));
  ASSERT_TRUE(report.ok) << report.summary();
  EXPECT_EQ(report.makespan, predict_allgather_direct(params));
  EXPECT_EQ(report.makespan, allgather_lower_bound(params));
}

TEST_P(AllgatherSweep, RingIsValidButPaysLatencyPerHop) {
  const auto& [n, lambda] = GetParam();
  const PostalParams params(n, lambda);
  const Schedule s = allgather_ring_schedule(params);
  const SimReport report = validate_schedule(s, params, allgather_goal(params));
  ASSERT_TRUE(report.ok) << report.summary();
  EXPECT_EQ(report.makespan, predict_allgather_ring(params));
  // The ring meets the lower bound only in the telephone model or the
  // degenerate 2-processor system ((n-1)*lambda == (n-2)+lambda there).
  if (lambda == Rational(1) || n == 2) {
    EXPECT_EQ(report.makespan, allgather_lower_bound(params));
  } else {
    EXPECT_GT(report.makespan, allgather_lower_bound(params));
  }
}

TEST_P(AllgatherSweep, GatherBcastIsValid) {
  const auto& [n, lambda] = GetParam();
  const PostalParams params(n, lambda);
  const Schedule s = allgather_gather_bcast_schedule(params);
  const SimReport report = validate_schedule(s, params, allgather_goal(params));
  ASSERT_TRUE(report.ok) << report.summary();
  EXPECT_EQ(report.makespan, predict_allgather_gather_bcast(params));
}

INSTANTIATE_TEST_SUITE_P(
    Grid, AllgatherSweep,
    ::testing::Values(std::pair<std::uint64_t, Rational>{2, Rational(2)},
                      std::pair<std::uint64_t, Rational>{5, Rational(5, 2)},
                      std::pair<std::uint64_t, Rational>{16, Rational(1)},
                      std::pair<std::uint64_t, Rational>{12, Rational(4)},
                      std::pair<std::uint64_t, Rational>{9, Rational(7, 3)}),
    [](const auto& pinfo) {
      return test::cat("n", std::to_string(pinfo.param.first), "_lam",
                       std::to_string(pinfo.param.second.num()), "_",
                       std::to_string(pinfo.param.second.den()));
    });

TEST(Allgather, DirectBeatsRingExactlyWhenLatencyAboveOne) {
  for (const Rational lambda : {Rational(3, 2), Rational(3), Rational(8)}) {
    const PostalParams params(10, lambda);
    EXPECT_LT(predict_allgather_direct(params), predict_allgather_ring(params))
        << "lambda=" << lambda.str();
  }
}

TEST(Allgather, SingleProcessorDegenerate) {
  const PostalParams params(1, Rational(2));
  EXPECT_TRUE(allgather_direct_schedule(params).empty());
  EXPECT_TRUE(allgather_ring_schedule(params).empty());
  EXPECT_EQ(predict_allgather_direct(params), Rational(0));
}

// ---------------------------------------------------------------------------
// Barrier
// ---------------------------------------------------------------------------

TEST(Barrier, CompletionIsTwiceTheIndexFunction) {
  for (const Rational lambda : {Rational(1), Rational(5, 2), Rational(4)}) {
    GenFib fib(lambda);
    for (std::uint64_t n : {2ULL, 9ULL, 33ULL, 128ULL}) {
      const PostalParams params(n, lambda);
      EXPECT_EQ(predict_barrier(params), Rational(2) * fib.f(n))
          << "n=" << n << " lambda=" << lambda.str();
    }
  }
}

TEST(Barrier, ScheduleHasBothPhases) {
  const PostalParams params(10, Rational(5, 2));
  const Schedule s = barrier_schedule(params);
  // n-1 arrival sends plus n-1 release sends.
  EXPECT_EQ(s.size(), 2 * (params.n() - 1));
  // The release message id is n.
  bool saw_release = false;
  for (const SendEvent& e : s.events()) {
    if (e.msg == params.n()) saw_release = true;
  }
  EXPECT_TRUE(saw_release);
}

TEST(Barrier, ReducePhaseIsValidAndReleasePhaseCovers) {
  const PostalParams params(10, Rational(5, 2));
  const Schedule s = barrier_schedule(params);
  // Split phases by message id and validate each with its own checker.
  Schedule arrive;
  Schedule release;
  for (const SendEvent& e : s.events()) {
    if (e.msg == params.n()) {
      release.add(e.src, e.dst, 0, e.t - predict_reduce(params));
    } else {
      arrive.add(e);
    }
  }
  const ReduceReport r1 = validate_reduce(arrive, params);
  EXPECT_TRUE(r1.ok) << (r1.violations.empty() ? "" : r1.violations[0]);
  const SimReport r2 = validate_schedule(release, params);
  EXPECT_TRUE(r2.ok) << r2.summary();
}

TEST(Barrier, SingleProcessorDegenerate) {
  const PostalParams params(1, Rational(2));
  EXPECT_TRUE(barrier_schedule(params).empty());
  EXPECT_EQ(predict_barrier(params), Rational(0));
}

}  // namespace
}  // namespace postal
