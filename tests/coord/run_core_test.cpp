// The shared coordination run core (docs/COORDINATION.md, "Shared run
// core"): the generalized-Fibonacci relay over a member ring, the fault-plan
// scan, the crashed-rank list and the canonical event merge.
#include <cstdint>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "coord/run_core.hpp"
#include "faults/fault_plan.hpp"

namespace postal::coord {
namespace {

// Every (member, hi) send of one full relay from `root`, each recipient
// relaying its own range in turn.
std::vector<std::pair<std::uint64_t, std::uint64_t>> full_relay(
    GenFib& fib, std::uint64_t m, std::uint64_t root) {
  std::vector<std::pair<std::uint64_t, std::uint64_t>> sends;
  const auto record = [&sends](std::uint64_t member, std::uint64_t hi) {
    sends.emplace_back(member, hi);
  };
  relay_fib(fib, m, root, root, m, record);
  for (std::size_t i = 0; i < sends.size(); ++i) {
    const auto [member, hi] = sends[i];
    relay_fib(fib, m, root, member, hi, record);
  }
  return sends;
}

TEST(RunCore, RelayReachesEveryMemberButTheLeaderExactlyOnce) {
  for (const Rational lambda : {Rational(1), Rational(2), Rational(5, 2)}) {
    GenFib fib(lambda);
    for (std::uint64_t m = 1; m <= 64; ++m) {
      for (std::uint64_t root = 0; root < m; ++root) {
        std::vector<int> reached(m, 0);
        for (const auto& [member, hi] : full_relay(fib, m, root)) {
          ASSERT_LT(member, m);
          ++reached[member];
        }
        for (std::uint64_t r = 0; r < m; ++r) {
          EXPECT_EQ(reached[r], r == root ? 0 : 1)
              << "lambda " << lambda << " m " << m << " root " << root
              << " member " << r;
        }
      }
    }
  }
}

TEST(RunCore, RelayFromTheLeaderIsTheBcastSplitSequence) {
  // Rooted at member 0 the relay is Algorithm BCAST itself: the children of
  // [0, n) are the successive splits j, each handed [j, previous hi).
  GenFib fib(Rational(5, 2));
  const std::uint64_t n = 14;  // Figure 1 of the paper
  std::vector<std::pair<std::uint64_t, std::uint64_t>> sends;
  relay_fib(fib, n, 0, 0, n, [&sends](std::uint64_t member, std::uint64_t hi) {
    sends.emplace_back(member, hi);
  });
  std::uint64_t hi = n;
  ASSERT_FALSE(sends.empty());
  for (const auto& [member, child_hi] : sends) {
    EXPECT_EQ(child_hi, hi);
    EXPECT_EQ(member, fib.bcast_split(hi));
    hi = member;
  }
  EXPECT_EQ(hi, 1U);
}

TEST(RunCore, SingletonAndEmptyRangesRelayNothing) {
  GenFib fib(Rational(2));
  for (std::uint64_t m = 1; m <= 64; ++m) {
    for (std::uint64_t root = 0; root < m; ++root) {
      for (std::uint64_t idx = 0; idx < m; ++idx) {
        int sends = 0;
        const auto count = [&sends](std::uint64_t, std::uint64_t) { ++sends; };
        // The heal and repair sends: hi = renamed + 1.
        relay_fib(fib, m, root, idx, ring_rename(idx, root, m) + 1, count);
        // The log's point-to-point commits and repairs carry hi = 0.
        relay_fib(fib, m, root, idx, 0, count);
        EXPECT_EQ(sends, 0) << "m " << m << " root " << root << " idx " << idx;
      }
    }
  }
}

TEST(RunCore, RelayClampsTheRangeToTheRing) {
  GenFib fib(Rational(3));
  for (std::uint64_t m = 2; m <= 32; ++m) {
    std::vector<std::pair<std::uint64_t, std::uint64_t>> exact;
    std::vector<std::pair<std::uint64_t, std::uint64_t>> wide;
    relay_fib(fib, m, 1 % m, 1 % m, m, [&exact](std::uint64_t a, std::uint64_t b) {
      exact.emplace_back(a, b);
    });
    relay_fib(fib, m, 1 % m, 1 % m, m + 7, [&wide](std::uint64_t a, std::uint64_t b) {
      wide.emplace_back(a, b);
    });
    EXPECT_EQ(exact, wide) << "m " << m;
  }
}

TEST(RunCore, ScanPlanFindsLastDisturbanceAndLossBudget) {
  const PlanDisturbance none = scan_plan(nullptr);
  EXPECT_EQ(none.last, Rational(0));
  EXPECT_EQ(none.loss_budget, 0);
  EXPECT_TRUE(none.bounded_losses);

  FaultPlan plan;
  plan.crashes = {CrashFault{3, Rational(7)}, CrashFault{1, Rational(2)}};
  plan.spikes = {LatencySpike{Rational(1), Rational(5), Rational(4)}};
  plan.losses = {LinkLoss{0, 1, Rational(1, 2), 3},
                 LinkLoss{1, 2, Rational(0), 0},  // never drops: no budget
                 LinkLoss{2, 3, Rational(1), 100}};
  const PlanDisturbance d = scan_plan(&plan);
  EXPECT_EQ(d.last, Rational(9));  // the spike's until + extra
  EXPECT_EQ(d.loss_budget, 3 + 64);
  EXPECT_TRUE(d.bounded_losses);

  plan.losses.push_back(LinkLoss{3, 4, Rational(1, 4), 0});
  EXPECT_FALSE(scan_plan(&plan).bounded_losses);
}

TEST(RunCore, CrashedRanksAreSortedUniqueAndInRange) {
  EXPECT_TRUE(crashed_ranks(8, nullptr).empty());
  FaultPlan plan;
  plan.crashes = {CrashFault{5, Rational(1)}, CrashFault{2, Rational(0)},
                  CrashFault{5, Rational(3)}, CrashFault{9, Rational(1)}};
  EXPECT_EQ(crashed_ranks(8, &plan), (std::vector<ProcId>{2, 5}));
}

TEST(RunCore, MergeEventsOrdersByTimeThenRankKeepingEachRanksOrder) {
  struct Event {
    Rational time;
    ProcId rank = 0;
    int seq = 0;
  };
  std::vector<std::vector<Event>> logs(3);
  logs[0] = {{Rational(1), 0, 0}, {Rational(4), 0, 1}, {Rational(4), 0, 2}};
  logs[1] = {{Rational(0), 1, 0}, {Rational(4), 1, 1}};
  logs[2] = {{Rational(1), 2, 0}};
  const std::vector<Event> events = merge_events(logs);
  std::vector<std::pair<ProcId, int>> order;
  for (const Event& e : events) order.emplace_back(e.rank, e.seq);
  EXPECT_EQ(order, (std::vector<std::pair<ProcId, int>>{
                       {1, 0}, {0, 0}, {2, 0}, {0, 1}, {0, 2}, {1, 1}}));
}

}  // namespace
}  // namespace postal::coord
