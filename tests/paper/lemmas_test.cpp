// End-to-end reproduction tests for the paper's numbered results, one test
// (or parameterized sweep) per lemma/theorem, checked through the full
// pipeline: algorithm generator -> postal-model validator -> exact rational
// comparison with the closed form.
//
//   Lemma 3/4 + Theorem 6 ... BCAST correctness, T_B = f_lambda(n)
//   Lemma 8 ................. universal lower bound (m-1) + f_lambda(n)
//   Lemma 10 ................ REPEAT   = m f(n) - (m-1)(lambda-1)
//   Lemma 12 ................ PACK     = m f_{1+(lambda-1)/m}(n)
//   Lemma 14 ................ PIPELINE-1 = m f_{lambda/m}(n) + (m-1)
//   Lemma 16 ................ PIPELINE-2 = lambda f_{m/lambda}(n) + (lambda-1)
//   Lemma 18 ................ DTREE <= d(m-1) + (d-1+lambda) ceil(log_d n)
#include <gtest/gtest.h>

#include <tuple>
#include <vector>

#include "model/bounds.hpp"
#include "sched/dtree.hpp"
#include "sched/registry.hpp"
#include "sim/validator.hpp"
#include "test_util.hpp"

namespace postal {
namespace {

struct GridCase {
  std::uint64_t n;
  std::uint64_t m;
  Rational lambda;
};

std::vector<GridCase> dense_grid() {
  std::vector<GridCase> cases;
  const Rational lambdas[] = {Rational(1),     Rational(3, 2), Rational(2),
                              Rational(5, 2),  Rational(3),    Rational(4),
                              Rational(13, 4), Rational(8)};
  const std::uint64_t ns[] = {2, 3, 5, 8, 14, 27, 64, 120};
  const std::uint64_t ms[] = {1, 2, 3, 5, 8, 13};
  for (const Rational& lambda : lambdas) {
    for (const std::uint64_t n : ns) {
      for (const std::uint64_t m : ms) {
        cases.push_back(GridCase{n, m, lambda});
      }
    }
  }
  return cases;
}

class PaperGrid : public ::testing::TestWithParam<GridCase> {};

TEST_P(PaperGrid, EveryAlgorithmValidOrderPreservingExactAndAboveLemma8) {
  const auto& [n, m, lambda] = GetParam();
  const PostalParams params(n, lambda);
  GenFib fib(lambda);
  const Rational lower = lemma8_lower(fib, n, m);

  for (const MultiAlgo algo : all_multi_algos()) {
    const Schedule s = make_multi_schedule(algo, params, m);
    ValidatorOptions options;
    options.messages = static_cast<std::uint32_t>(m);
    const SimReport report = validate_schedule(s, params, options);
    ASSERT_TRUE(report.ok) << algo_name(algo) << ": " << report.summary();
    EXPECT_TRUE(report.order_preserving) << algo_name(algo);
    // Simulated completion equals the library's closed-form prediction.
    EXPECT_EQ(report.makespan, predict_multi(algo, params, m)) << algo_name(algo);
    // Lemma 8: nothing beats (m-1) + f_lambda(n).
    EXPECT_GE(report.makespan, lower) << algo_name(algo);
  }
}

INSTANTIATE_TEST_SUITE_P(DenseGrid, PaperGrid, ::testing::ValuesIn(dense_grid()),
                         [](const ::testing::TestParamInfo<GridCase>& pinfo) {
                           return test::cat(
                               "n", std::to_string(pinfo.param.n), "_m",
                               std::to_string(pinfo.param.m), "_lam",
                               std::to_string(pinfo.param.lambda.num()), "_",
                               std::to_string(pinfo.param.lambda.den()));
                         });

TEST(PaperLemmas, Lemma18BoundsEveryDTreeDegree) {
  for (const Rational lambda : {Rational(1), Rational(5, 2), Rational(4)}) {
    for (const std::uint64_t n : {5ULL, 17ULL, 64ULL}) {
      const PostalParams params(n, lambda);
      for (const std::uint64_t m : {1ULL, 4ULL, 9ULL}) {
        for (std::uint64_t d = 1; d <= n - 1; ++d) {
          EXPECT_LE(predict_dtree(params, m, d),
                    lemma18_dtree_upper(lambda, n, m, d))
              << "n=" << n << " m=" << m << " d=" << d
              << " lambda=" << lambda.str();
        }
      }
    }
  }
}

}  // namespace
}  // namespace postal
