// Mutation fuzzing of the schedule validator: start from a known-legal
// BCAST schedule for a seeded random MPS(n, lambda), corrupt exactly one
// send, and demand the validator (a) never crashes, (b) flags exactly the
// violation class the mutation injects, and (c) nothing else.
//
// The mutations lean on BCAST's structure (each non-root processor
// receives exactly once; a recipient's first send starts exactly at its
// arrival time; a sender's sends occupy one contiguous block of unit
// intervals), which lets each recipe break one clause of Definitions 1-2
// in isolation:
//
//   shift-start      a non-root sender's first send moved one unit before
//                    its own arrival -> causality, and only causality (the
//                    shifted interval clears the sender's other sends);
//   duplicate-port   a sender's second send moved onto its first send's
//                    interval -> send-port exclusivity, and only that (the
//                    start still postdates the sender's arrival);
//   retarget-receive a send whose target is a leaf redirected at a
//                    processor whose receive window overlaps -> receive-
//                    port exclusivity (coverage checking is disabled for
//                    this recipe: the abandoned leaf would otherwise add a
//                    second, unrelated violation).
//
// scripts/check.sh --sanitize re-runs this binary under ASan+UBSan.
#include <gtest/gtest.h>

#include <algorithm>
#include <map>

#include "sched/bcast.hpp"
#include "sim/validator.hpp"
#include "support/prng.hpp"
#include "test_util.hpp"

namespace postal {
namespace {

struct Instance {
  PostalParams params;
  Schedule schedule;
  std::map<ProcId, Rational> arrival;  // when each non-root proc receives
};

Instance random_instance(Xoshiro256& rng) {
  const std::uint64_t n = rng.uniform(3, 48);
  const std::uint64_t q = rng.uniform(1, 3);
  const std::uint64_t p = rng.uniform(q, 4 * q);  // lambda in [1, 4]
  const PostalParams params(
      n, Rational(static_cast<std::int64_t>(p), static_cast<std::int64_t>(q)));
  Instance inst{params, bcast_schedule(params), {}};
  for (const SendEvent& e : inst.schedule.events()) {
    inst.arrival.emplace(e.dst, e.t + params.lambda());
  }
  return inst;
}

// Index of processor `who`'s k-th earliest send, or npos.
std::size_t nth_send_of(const Schedule& s, ProcId who, std::size_t k) {
  std::vector<std::size_t> mine;
  for (std::size_t i = 0; i < s.events().size(); ++i) {
    if (s.events()[i].src == who) mine.push_back(i);
  }
  std::sort(mine.begin(), mine.end(), [&s](std::size_t a, std::size_t b) {
    return s.events()[a].t < s.events()[b].t;
  });
  return k < mine.size() ? mine[k] : static_cast<std::size_t>(-1);
}

Schedule with_event(const Schedule& base, std::size_t index, SendEvent patched) {
  Schedule out;
  for (std::size_t i = 0; i < base.events().size(); ++i) {
    out.add(i == index ? patched : base.events()[i]);
  }
  return out;
}

bool contains(const std::string& hay, const std::string& needle) {
  return hay.find(needle) != std::string::npos;
}

TEST(ValidatorFuzzTest, UnmutatedSchedulesAlwaysValidate) {
  Xoshiro256 rng(0xBA5Eu);
  for (int iter = 0; iter < 60; ++iter) {
    const Instance inst = random_instance(rng);
    const SimReport report = validate_schedule(inst.schedule, inst.params);
    ASSERT_TRUE(report.ok) << "n=" << inst.params.n()
                           << " lambda=" << inst.params.lambda() << "\n"
                           << report.summary();
  }
}

TEST(ValidatorFuzzTest, ShiftedStartFlagsExactlyCausality) {
  Xoshiro256 rng(0xCA05Eu);
  int mutated = 0;
  for (int iter = 0; iter < 200 && mutated < 80; ++iter) {
    const Instance inst = random_instance(rng);
    // Non-root senders, i.e. processors that both receive and send.
    std::vector<ProcId> senders;
    for (const auto& [p, t] : inst.arrival) {
      if (nth_send_of(inst.schedule, p, 0) != static_cast<std::size_t>(-1)) {
        senders.push_back(p);
      }
    }
    if (senders.empty()) continue;
    const ProcId s = senders[rng.uniform(0, senders.size() - 1)];
    const std::size_t index = nth_send_of(inst.schedule, s, 0);
    SendEvent e = inst.schedule.events()[index];
    ASSERT_EQ(e.t, inst.arrival.at(s));  // BCAST: first send at arrival
    e.t = e.t - Rational(1);  // one full unit: clears s's own send block
    const Schedule bad = with_event(inst.schedule, index, e);

    SimReport report;
    ASSERT_NO_THROW(report = validate_schedule(bad, inst.params));
    EXPECT_FALSE(report.ok);
    ASSERT_EQ(report.violations.size(), 1u) << report.summary();
    EXPECT_TRUE(contains(report.violations[0], "sender does not hold the message yet"))
        << report.violations[0];
    ++mutated;
  }
  EXPECT_GE(mutated, 30);
}

TEST(ValidatorFuzzTest, DuplicatePortUseFlagsExactlySendPort) {
  Xoshiro256 rng(0xD0B1Eu);
  int mutated = 0;
  for (int iter = 0; iter < 200 && mutated < 80; ++iter) {
    const Instance inst = random_instance(rng);
    // Any processor with at least two sends (the root always qualifies for
    // n >= 3).
    std::vector<ProcId> senders;
    for (ProcId p = 0; p < inst.params.n(); ++p) {
      if (nth_send_of(inst.schedule, p, 1) != static_cast<std::size_t>(-1)) {
        senders.push_back(p);
      }
    }
    ASSERT_FALSE(senders.empty());
    const ProcId s = senders[rng.uniform(0, senders.size() - 1)];
    const std::size_t first = nth_send_of(inst.schedule, s, 0);
    const std::size_t second = nth_send_of(inst.schedule, s, 1);
    SendEvent e = inst.schedule.events()[second];
    e.t = inst.schedule.events()[first].t;  // exact duplicate port use
    const Schedule bad = with_event(inst.schedule, second, e);

    SimReport report;
    ASSERT_NO_THROW(report = validate_schedule(bad, inst.params));
    EXPECT_FALSE(report.ok);
    ASSERT_EQ(report.violations.size(), 1u) << report.summary();
    EXPECT_TRUE(contains(report.violations[0],
                         "send port of p" + std::to_string(s) + " already busy"))
        << report.violations[0];
    ++mutated;
  }
  EXPECT_GE(mutated, 30);
}

TEST(ValidatorFuzzTest, RetargetedSendFlagsExactlyReceivePort) {
  Xoshiro256 rng(0x4EC41Fu);
  int mutated = 0;
  for (int iter = 0; iter < 400 && mutated < 80; ++iter) {
    const Instance inst = random_instance(rng);
    const auto& events = inst.schedule.events();
    // A send aimed at a *leaf* (no follow-on sends, so retargeting it
    // cannot secondarily break causality) whose receive window overlaps
    // another processor's: |t_i - t_j| < 1.
    std::size_t victim = static_cast<std::size_t>(-1);
    ProcId new_dst = 0;
    for (std::size_t j = 0; j < events.size() && victim == static_cast<std::size_t>(-1);
         ++j) {
      if (nth_send_of(inst.schedule, events[j].dst, 0) != static_cast<std::size_t>(-1)) {
        continue;  // dst sends later: not a leaf
      }
      for (std::size_t i = 0; i < events.size(); ++i) {
        if (i == j || events[i].dst == events[j].dst) continue;
        const Rational gap = events[i].t < events[j].t ? events[j].t - events[i].t
                                                       : events[i].t - events[j].t;
        if (gap < Rational(1)) {
          victim = j;
          new_dst = events[i].dst;
          break;
        }
      }
    }
    if (victim == static_cast<std::size_t>(-1)) continue;
    SendEvent e = events[victim];
    e.dst = new_dst;
    const Schedule bad = with_event(inst.schedule, victim, e);

    // Coverage checking off: the abandoned leaf would add an unrelated
    // "never received" violation on top of the port clash under test.
    ValidatorOptions options;
    options.require_coverage = false;
    SimReport report;
    ASSERT_NO_THROW(report = validate_schedule(bad, inst.params, options));
    EXPECT_FALSE(report.ok);
    ASSERT_EQ(report.violations.size(), 1u) << report.summary();
    EXPECT_TRUE(contains(report.violations[0], "receive port of p" +
                                                   std::to_string(new_dst) +
                                                   " already busy"))
        << report.violations[0];
    ++mutated;
  }
  EXPECT_GE(mutated, 30);
}

TEST(ValidatorFuzzTest, DroppedSendFlagsCoverage) {
  Xoshiro256 rng(0xC0FEu);
  for (int iter = 0; iter < 60; ++iter) {
    const Instance inst = random_instance(rng);
    const auto& events = inst.schedule.events();
    // Remove a send aimed at a leaf: exactly that processor goes uncovered.
    std::size_t victim = static_cast<std::size_t>(-1);
    for (std::size_t j = 0; j < events.size(); ++j) {
      if (nth_send_of(inst.schedule, events[j].dst, 0) == static_cast<std::size_t>(-1)) {
        victim = j;
        break;
      }
    }
    ASSERT_NE(victim, static_cast<std::size_t>(-1));
    Schedule bad;
    for (std::size_t i = 0; i < events.size(); ++i) {
      if (i != victim) bad.add(events[i]);
    }
    SimReport report;
    ASSERT_NO_THROW(report = validate_schedule(bad, inst.params));
    EXPECT_FALSE(report.ok);
    ASSERT_EQ(report.violations.size(), 1u) << report.summary();
    EXPECT_TRUE(contains(report.violations[0],
                         test::cat("p", std::to_string(events[victim].dst),
                                   " never received")))
        << report.violations[0];
  }
}

}  // namespace
}  // namespace postal
