// Tests for the scatter-allgather broadcast (the [2]-style near-optimal,
// non-order-preserving multi-message algorithm).
#include "sched/scatter_allgather.hpp"

#include <gtest/gtest.h>

#include <tuple>

#include "model/bounds.hpp"
#include "sched/registry.hpp"
#include "sim/validator.hpp"
#include "test_util.hpp"

namespace postal {
namespace {

struct SagCase {
  std::uint64_t n;
  std::uint64_t m;
  Rational lambda;
};

class SagSweep : public ::testing::TestWithParam<SagCase> {};

TEST_P(SagSweep, ValidCoversAndRespectsLemma8) {
  const auto& [n, m, lambda] = GetParam();
  const PostalParams params(n, lambda);
  const Schedule s = scatter_allgather_schedule(params, m);
  ValidatorOptions options;
  options.messages = static_cast<std::uint32_t>(m);
  const SimReport report = validate_schedule(s, params, options);
  ASSERT_TRUE(report.ok) << report.summary();
  GenFib fib(lambda);
  EXPECT_GE(report.makespan, lemma8_lower(fib, n, m));
  EXPECT_EQ(report.makespan, predict_scatter_allgather(params, m));
}

INSTANTIATE_TEST_SUITE_P(
    Grid, SagSweep,
    ::testing::Values(SagCase{2, 1, Rational(2)}, SagCase{2, 9, Rational(5, 2)},
                      SagCase{8, 3, Rational(2)}, SagCase{8, 64, Rational(2)},
                      SagCase{14, 30, Rational(5, 2)}, SagCase{16, 16, Rational(1)},
                      SagCase{9, 100, Rational(4)}, SagCase{32, 7, Rational(3)},
                      SagCase{5, 12, Rational(7, 2)}),
    [](const ::testing::TestParamInfo<SagCase>& pinfo) {
      return test::cat("n", std::to_string(pinfo.param.n), "_m",
                       std::to_string(pinfo.param.m), "_lam",
                       std::to_string(pinfo.param.lambda.num()), "_",
                       std::to_string(pinfo.param.lambda.den()));
    });

TEST(ScatterAllgather, OwnersPartitionMessages) {
  const PostalParams params(6, Rational(2));
  for (MsgId j = 0; j < 30; ++j) {
    EXPECT_EQ(scatter_allgather_owner(params, j), j % 6);
  }
}

TEST(ScatterAllgather, IsNotOrderPreserving) {
  // The defining trade-off (paper Section 5): near-optimal for large m,
  // but message order is lost.
  const PostalParams params(8, Rational(2));
  const std::uint64_t m = 24;
  ValidatorOptions options;
  options.messages = static_cast<std::uint32_t>(m);
  const SimReport report =
      validate_schedule(scatter_allgather_schedule(params, m), params, options);
  ASSERT_TRUE(report.ok);
  EXPECT_FALSE(report.order_preserving);
}

TEST(ScatterAllgather, BeatsEveryOrderPreservingAlgoInItsRegime) {
  // The winning regime in the postal model: lambda large relative to
  // sqrt(n), m comparable to n. (For m -> infinity at fixed n, DTREE(d=1)
  // is already near-optimal -- Section 4.3 -- so no algorithm can beat it
  // there; the non-order-preserving construction pays off when the latency
  // is what hurts, not the stream length.)
  for (const auto& [n, m, lambda] :
       {std::tuple<std::uint64_t, std::uint64_t, Rational>{64, 64, Rational(16)},
        {128, 64, Rational(16)},
        {64, 48, Rational(32)},
        {256, 128, Rational(32)}}) {
    const PostalParams params(n, lambda);
    const Rational sag = predict_scatter_allgather(params, m);
    for (const MultiAlgo algo : all_multi_algos()) {
      EXPECT_LT(sag, predict_multi(algo, params, m))
          << algo_name(algo) << " n=" << n << " m=" << m;
    }
  }
}

TEST(ScatterAllgather, WithinSmallConstantOfLowerBound) {
  // T ~ scatter (m + lambda) + allgather (ceil(m/n)(n-1) + lambda):
  // always within ~2.5x of Lemma 8 once m >= n.
  for (const Rational lambda : {Rational(2), Rational(4), Rational(16)}) {
    GenFib fib(lambda);
    for (const std::uint64_t n : {8ULL, 32ULL, 64ULL}) {
      const PostalParams params(n, lambda);
      for (const std::uint64_t mult : {1ULL, 4ULL, 16ULL}) {
        const std::uint64_t m = mult * n;
        const Rational sag = predict_scatter_allgather(params, m);
        const Rational lower = lemma8_lower(fib, n, m);
        EXPECT_LE(sag.to_double(), 2.5 * lower.to_double())
            << "n=" << n << " m=" << m << " lambda=" << lambda.str();
      }
    }
  }
}

TEST(ScatterAllgather, SingleProcessorDegenerate) {
  const PostalParams params(1, Rational(2));
  EXPECT_TRUE(scatter_allgather_schedule(params, 5).empty());
  EXPECT_EQ(predict_scatter_allgather(params, 5), Rational(0));
}

TEST(ScatterAllgather, RejectsZeroMessages) {
  const PostalParams params(4, Rational(2));
  POSTAL_EXPECT_THROW(scatter_allgather_schedule(params, 0), InvalidArgument);
}

TEST(ScatterAllgather, SingleMessageDegeneratesToStar) {
  // m = 1: the root owns the only message; phase 2 is a star broadcast.
  const PostalParams params(6, Rational(3));
  const Schedule s = scatter_allgather_schedule(params, 1);
  EXPECT_EQ(s.size(), 5u);
  for (const SendEvent& e : s.events()) EXPECT_EQ(e.src, 0u);
}

}  // namespace
}  // namespace postal
