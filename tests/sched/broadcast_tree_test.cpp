// Tests for BroadcastTree: structure validation, the builders (fibonacci /
// binomial / dary), greedy scheduling, and Figure 1's tree shape.
#include "sched/broadcast_tree.hpp"

#include <gtest/gtest.h>

#include <numeric>

#include "model/genfib.hpp"
#include "sched/bcast.hpp"
#include "test_util.hpp"

namespace postal {
namespace {

TEST(BroadcastTree, ValidatesTreeStructure) {
  // A valid 3-node chain.
  EXPECT_NO_THROW(BroadcastTree(0, {{1}, {2}, {}}));
  // Node informed twice.
  EXPECT_THROW(BroadcastTree(0, {{1, 1}, {}, {2}}), InvalidArgument);
  // Unreached node.
  EXPECT_THROW(BroadcastTree(0, {{1}, {}, {}}), InvalidArgument);
  // Child id out of range.
  EXPECT_THROW(BroadcastTree(0, {{5}}), InvalidArgument);
  // Root out of range.
  EXPECT_THROW(BroadcastTree(9, {{1}, {}}), InvalidArgument);
  // Cycle back to root.
  EXPECT_THROW(BroadcastTree(0, {{1}, {0}}), InvalidArgument);
}

TEST(BroadcastTree, SingleNode) {
  const BroadcastTree t(0, {{}});
  EXPECT_EQ(t.n(), 1u);
  EXPECT_EQ(t.completion_time(Rational(3)), Rational(0));
  EXPECT_TRUE(t.greedy_schedule(Rational(3)).empty());
}

TEST(BroadcastTree, ParentsAreConsistent) {
  const BroadcastTree t(0, {{2, 1}, {}, {3}, {}});
  EXPECT_EQ(t.parent(0), 0u);
  EXPECT_EQ(t.parent(1), 0u);
  EXPECT_EQ(t.parent(2), 0u);
  EXPECT_EQ(t.parent(3), 2u);
}

TEST(BroadcastTree, DepthsFollowEdges) {
  const BroadcastTree t(0, {{1, 2}, {3}, {}, {}});
  const auto d = t.depths();
  EXPECT_EQ(d[0], 0u);
  EXPECT_EQ(d[1], 1u);
  EXPECT_EQ(d[2], 1u);
  EXPECT_EQ(d[3], 2u);
}

TEST(BroadcastTree, DaryLayoutIsLeftToRightAlmostFull) {
  const BroadcastTree t = BroadcastTree::dary(10, 3);
  EXPECT_EQ(t.children(0), (std::vector<ProcId>{1, 2, 3}));
  EXPECT_EQ(t.children(1), (std::vector<ProcId>{4, 5, 6}));
  EXPECT_EQ(t.children(2), (std::vector<ProcId>{7, 8, 9}));
  EXPECT_TRUE(t.children(3).empty());
  EXPECT_EQ(t.max_degree(), 3u);
}

TEST(BroadcastTree, DaryLineAndStar) {
  const BroadcastTree line = BroadcastTree::dary(5, 1);
  for (ProcId p = 0; p + 1 < 5; ++p) {
    EXPECT_EQ(line.children(p), (std::vector<ProcId>{p + 1}));
  }
  const BroadcastTree star = BroadcastTree::dary(5, 4);
  EXPECT_EQ(star.children(0).size(), 4u);
  for (ProcId p = 1; p < 5; ++p) EXPECT_TRUE(star.children(p).empty());
}

TEST(BroadcastTree, DaryRejectsBadDegree) {
  POSTAL_EXPECT_THROW(BroadcastTree::dary(5, 0), InvalidArgument);
  POSTAL_EXPECT_THROW(BroadcastTree::dary(5, 5), InvalidArgument);
  EXPECT_NO_THROW(BroadcastTree::dary(1, 99));  // any d for a single node
}

TEST(BroadcastTree, BinomialEqualsFibonacciAtLambdaOne) {
  for (std::uint64_t n : {2ULL, 5ULL, 16ULL, 31ULL}) {
    const BroadcastTree a = BroadcastTree::binomial(n);
    const BroadcastTree b = BroadcastTree::fibonacci(n, Rational(1));
    for (ProcId p = 0; p < n; ++p) {
      EXPECT_EQ(a.children(p), b.children(p)) << "n=" << n << " p=" << p;
    }
  }
}

TEST(BroadcastTree, BinomialCompletionIsCeilLog2AtLambdaOne) {
  for (std::uint64_t n = 2; n <= 64; ++n) {
    const BroadcastTree t = BroadcastTree::binomial(n);
    GenFib fib(Rational(1));
    EXPECT_EQ(t.completion_time(Rational(1)), fib.f(n)) << "n=" << n;
  }
}

TEST(BroadcastTree, Figure1Shape) {
  const BroadcastTree t = BroadcastTree::fibonacci(14, Rational(5, 2));
  EXPECT_EQ(t.children(0).front(), 9u);
  EXPECT_EQ(t.completion_time(Rational(5, 2)), Rational(15, 2));
  const auto informed = t.inform_times(Rational(5, 2));
  EXPECT_EQ(informed[9], Rational(5, 2));
  EXPECT_EQ(informed[0], Rational(0));
}

TEST(BroadcastTree, FromScheduleRoundTrips) {
  const PostalParams params(20, Rational(5, 2));
  const Schedule s = bcast_schedule(params);
  const BroadcastTree t = BroadcastTree::from_schedule(s, 20);
  const Schedule regenerated = t.greedy_schedule(Rational(5, 2));
  ASSERT_EQ(regenerated.size(), s.size());
  for (std::size_t i = 0; i < s.size(); ++i) {
    EXPECT_EQ(regenerated.events()[i], s.events()[i]) << "event " << i;
  }
}

TEST(BroadcastTree, FromScheduleRejectsDoubleReceive) {
  Schedule s;
  s.add(0, 1, 0, Rational(0));
  s.add(0, 1, 0, Rational(1));
  EXPECT_THROW(BroadcastTree::from_schedule(s, 2), InvalidArgument);
}

TEST(BroadcastTree, FromScheduleRejectsRootReceive) {
  Schedule s;
  s.add(1, 0, 0, Rational(0));
  EXPECT_THROW(BroadcastTree::from_schedule(s, 2), InvalidArgument);
}

TEST(BroadcastTree, FromScheduleRejectsMultiMessage) {
  Schedule s;
  s.add(0, 1, 0, Rational(0));
  s.add(0, 1, 1, Rational(1));
  EXPECT_THROW(BroadcastTree::from_schedule(s, 2), InvalidArgument);
}

TEST(BroadcastTree, GreedyScheduleInformTimesMatch) {
  const BroadcastTree t = BroadcastTree::dary(13, 3);
  const Rational lambda(7, 4);
  const auto informed = t.inform_times(lambda);
  const Schedule s = t.greedy_schedule(lambda);
  for (const SendEvent& e : s.events()) {
    EXPECT_EQ(informed[e.dst], e.t + lambda);
    EXPECT_GE(e.t, informed[e.src]);
  }
}

TEST(BroadcastTree, RenderContainsEveryNode) {
  const BroadcastTree t = BroadcastTree::fibonacci(8, Rational(2));
  const std::string out = t.render(Rational(2));
  for (ProcId p = 0; p < 8; ++p) {
    EXPECT_NE(out.find(test::cat("p", std::to_string(p))), std::string::npos);
  }
}

TEST(BroadcastTree, StarCompletionGrowsLinearly) {
  const BroadcastTree star = BroadcastTree::dary(10, 9);
  // Root sends at 0..8; last child informed at 8 + lambda.
  EXPECT_EQ(star.completion_time(Rational(5, 2)), Rational(8) + Rational(5, 2));
}

TEST(BroadcastTree, LineCompletionIsPathLatency) {
  const BroadcastTree line = BroadcastTree::dary(6, 1);
  EXPECT_EQ(line.completion_time(Rational(3)), Rational(15));
}

}  // namespace
}  // namespace postal
