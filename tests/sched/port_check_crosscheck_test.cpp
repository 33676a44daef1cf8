// Crosscheck of the shared port-window checker (sched/port_check.hpp)
// against the five per-model loops it replaced. Each reference below is
// the model's own checker as it was before the models shared one loop,
// kept verbatim apart from its name. Every checker and its reference run
// on a seeded corpus of mutants of known-good schedules (shifted times,
// retargeted receivers, duplicated and dropped events, out-of-range ids);
// ok, completion and the full violation vector must be identical.
#include <gtest/gtest.h>

#include <algorithm>
#include <optional>
#include <sstream>
#include <string>
#include <vector>

#include "adaptive/hetero.hpp"
#include "adaptive/hierarchical.hpp"
#include "collectives/reduce.hpp"
#include "sched/kported.hpp"
#include "sched/logp_machine.hpp"
#include "support/interval_set.hpp"
#include "support/prng.hpp"

namespace postal {
namespace {

// ---- References: the pre-change loops --------------------------------------

HeteroSimReport ref_simulate_hetero(const Schedule& schedule, const HeteroLatency& lat) {
  const std::uint64_t n = lat.n();
  HeteroSimReport report;
  auto violate = [&report](const std::string& text) {
    report.violations.push_back(text);
  };

  std::vector<SendEvent> events = schedule.events();
  std::stable_sort(events.begin(), events.end(),
                   [](const SendEvent& a, const SendEvent& b) { return a.t < b.t; });

  std::vector<IntervalSet> send_port(n);
  std::vector<IntervalSet> recv_port(n);
  std::vector<std::optional<Rational>> informed(n);
  informed[0] = Rational(0);

  for (const SendEvent& e : events) {
    if (e.src >= n || e.dst >= n) {
      violate(violation_prefix(e) + "processor id out of range");
      continue;
    }
    const auto& held = informed[e.src];
    if (!held.has_value() || e.t < *held) {
      violate(violation_prefix(e) + "sender not informed yet");
    }
    if (send_port[e.src].insert(e.t, e.t + Rational(1))) {
      violate(violation_prefix(e) + "send-port conflict");
    }
    const Rational arrive = e.t + lat.lambda(e.src, e.dst);
    if (recv_port[e.dst].insert(arrive - Rational(1), arrive)) {
      violate(violation_prefix(e) + "receive-port conflict");
    }
    auto& dst = informed[e.dst];
    if (!dst.has_value() || arrive < *dst) dst = arrive;
    report.completion = rmax(report.completion, arrive);
  }
  for (ProcId p = 0; p < n; ++p) {
    if (!informed[p].has_value()) {
      violate(std::string("p").append(std::to_string(p)).append(" never informed"));
    }
  }
  report.ok = report.violations.empty();
  return report;
}

HeteroReport ref_simulate_two_level(const Schedule& schedule,
                                    const TwoLevelParams& params) {
  params.validate();
  const std::uint64_t n = params.n;
  HeteroReport report;
  auto violate = [&report](const std::string& text) {
    report.violations.push_back(text);
  };

  std::vector<SendEvent> events = schedule.events();
  std::stable_sort(events.begin(), events.end(),
                   [](const SendEvent& a, const SendEvent& b) { return a.t < b.t; });

  std::vector<IntervalSet> send_port(n);
  std::vector<IntervalSet> recv_port(n);
  std::vector<std::optional<Rational>> informed(n);
  informed[0] = Rational(0);

  for (const SendEvent& e : events) {
    if (e.src >= n || e.dst >= n) {
      violate(violation_prefix(e) + "processor id out of range");
      continue;
    }
    const auto& held = informed[e.src];
    if (!held.has_value() || e.t < *held) {
      violate(violation_prefix(e) + "sender not informed yet");
    }
    if (send_port[e.src].insert(e.t, e.t + Rational(1))) {
      violate(violation_prefix(e) + "send-port conflict");
    }
    const Rational arrive = e.t + params.lambda(e.src, e.dst);
    if (recv_port[e.dst].insert(arrive - Rational(1), arrive)) {
      violate(violation_prefix(e) + "receive-port conflict");
    }
    auto& dst_informed = informed[e.dst];
    if (!dst_informed.has_value() || arrive < *dst_informed) dst_informed = arrive;
    report.completion = rmax(report.completion, arrive);
  }
  for (ProcId p = 0; p < n; ++p) {
    if (!informed[p].has_value()) {
      violate(std::string("p").append(std::to_string(p)).append(" never informed"));
    }
  }
  report.ok = report.violations.empty();
  return report;
}

KPortedReport ref_validate_kported(const Schedule& schedule, const PostalParams& params,
                                   std::uint64_t k) {
  POSTAL_REQUIRE(k >= 1, "validate_kported: k must be >= 1");
  const std::uint64_t n = params.n();
  const Rational& lambda = params.lambda();
  KPortedReport report;
  auto violate = [&report](const std::string& text) {
    report.violations.push_back(text);
  };

  std::vector<SendEvent> events = schedule.events();
  std::stable_sort(events.begin(), events.end(),
                   [](const SendEvent& a, const SendEvent& b) { return a.t < b.t; });

  std::vector<std::vector<Rational>> send_times(n);
  std::vector<IntervalSet> recv_port(n);
  std::vector<std::optional<Rational>> informed(n);
  informed[0] = Rational(0);

  for (const SendEvent& e : events) {
    if (e.src >= n || e.dst >= n) {
      violate(violation_prefix(e) + "processor id out of range");
      continue;
    }
    const auto& held = informed[e.src];
    if (!held.has_value() || e.t < *held) {
      violate(violation_prefix(e) + "sender not informed");
    }
    // k-port rule: at most k send windows [t, t+1) may overlap. Since
    // events come in time order, count earlier sends still open at e.t.
    auto& mine = send_times[e.src];
    std::uint64_t open = 0;
    for (auto it = mine.rbegin(); it != mine.rend(); ++it) {
      if (*it + Rational(1) > e.t) {
        ++open;
      } else {
        break;  // times are nondecreasing; older windows are closed
      }
    }
    if (open >= k) violate(violation_prefix(e) + "more than k overlapping sends");
    mine.push_back(e.t);
    const Rational arrive = e.t + lambda;
    if (recv_port[e.dst].insert(arrive - Rational(1), arrive)) {
      violate(violation_prefix(e) + "receive-port conflict");
    }
    auto& dst = informed[e.dst];
    if (!dst.has_value() || arrive < *dst) dst = arrive;
    report.completion = rmax(report.completion, arrive);
  }
  for (ProcId p = 0; p < n; ++p) {
    if (!informed[p].has_value()) {
      violate(std::string("p").append(std::to_string(p)).append(" never informed"));
    }
  }
  report.ok = report.violations.empty();
  return report;
}

LogPReport ref_validate_logp_schedule(const Schedule& schedule,
                                      const LogPParams& params) {
  params.validate();
  const std::uint64_t n = params.P;
  const Rational gap = params.effective_gap();
  const Rational usable_after = Rational(2) * params.o + params.L;

  LogPReport report;
  auto violate = [&report](const std::string& text) {
    report.violations.push_back(text);
  };

  std::vector<SendEvent> events = schedule.events();
  std::stable_sort(events.begin(), events.end(),
                   [](const SendEvent& a, const SendEvent& b) { return a.t < b.t; });

  // Spacing constraints are interval-exclusivity over windows of length
  // max(o, g): two submissions (or absorptions) closer than that overlap.
  std::vector<IntervalSet> submit_port(n);
  std::vector<IntervalSet> absorb_port(n);
  std::vector<std::optional<Rational>> usable(n);
  usable[0] = Rational(0);

  for (const SendEvent& e : events) {
    if (e.src >= n || e.dst >= n) {
      violate(violation_prefix(e) + "processor id out of range");
      continue;
    }
    const auto& held = usable[e.src];
    if (!held.has_value() || e.t < *held) {
      violate(violation_prefix(e) + "submitting a message that is not yet usable");
    }
    if (submit_port[e.src].insert(e.t, e.t + gap)) {
      violate(violation_prefix(e) + "submissions closer than max(o, g)");
    }
    const Rational usable_at = e.t + usable_after;
    if (absorb_port[e.dst].insert(usable_at - gap, usable_at)) {
      violate(violation_prefix(e) + "absorptions closer than max(o, g)");
    }
    auto& dst = usable[e.dst];
    if (!dst.has_value() || usable_at < *dst) dst = usable_at;
    report.completion = rmax(report.completion, usable_at);
  }
  for (ProcId p = 0; p < n; ++p) {
    if (!usable[p].has_value()) {
      violate(std::string("p").append(std::to_string(p)).append(" never informed"));
    }
  }
  report.ok = report.violations.empty();
  return report;
}

ReduceReport ref_validate_reduce(const Schedule& schedule, const PostalParams& params) {
  const std::uint64_t n = params.n();
  const Rational& lambda = params.lambda();
  ReduceReport report;
  auto violate = [&report](const std::string& text) {
    report.violations.push_back(text);
  };

  std::vector<SendEvent> events = schedule.events();
  std::stable_sort(events.begin(), events.end(),
                   [](const SendEvent& a, const SendEvent& b) { return a.t < b.t; });

  std::vector<IntervalSet> send_port(n);
  std::vector<IntervalSet> recv_port(n);
  std::vector<std::optional<Rational>> sent_at(n);
  // contributions[p]: count of distinct inputs currently combined at p.
  std::vector<std::uint64_t> contributions(n, 1);

  struct PendingArrival {
    Rational arrival;
    ProcId dst;
    std::uint64_t count;
  };
  std::vector<PendingArrival> pending;  // kept sorted by arrival lazily

  auto flush_until = [&](const Rational& now) {
    std::stable_sort(pending.begin(), pending.end(),
                     [](const PendingArrival& a, const PendingArrival& b) {
                       return a.arrival < b.arrival;
                     });
    std::size_t i = 0;
    for (; i < pending.size() && pending[i].arrival <= now; ++i) {
      const PendingArrival& a = pending[i];
      if (sent_at[a.dst].has_value() && *sent_at[a.dst] < a.arrival) {
        std::ostringstream oss;
        oss << "p" << a.dst << " already sent its partial result at t="
            << *sent_at[a.dst] << " but a contribution arrives at t=" << a.arrival;
        violate(oss.str());
      } else {
        contributions[a.dst] += a.count;
      }
    }
    pending.erase(pending.begin(), pending.begin() + static_cast<std::ptrdiff_t>(i));
  };

  for (const SendEvent& e : events) {
    if (e.src >= n || e.dst >= n) {
      violate(violation_prefix(e) + "processor id out of range");
      continue;
    }
    flush_until(e.t);
    if (e.src == 0) {
      violate(violation_prefix(e) + "the reduction root p0 must not send");
      continue;
    }
    if (sent_at[e.src].has_value()) {
      violate(violation_prefix(e) + "processor sends its partial result twice");
      continue;
    }
    sent_at[e.src] = e.t;
    if (auto clash = send_port[e.src].insert(e.t, e.t + Rational(1))) {
      violate(violation_prefix(e) + "send-port conflict");
    }
    const Rational arrive = e.t + lambda;
    if (auto clash = recv_port[e.dst].insert(arrive - Rational(1), arrive)) {
      violate(violation_prefix(e) + "receive-port conflict");
    }
    pending.push_back(PendingArrival{arrive, e.dst, contributions[e.src]});
    report.completion = rmax(report.completion, arrive);
  }
  // Flush everything still in flight.
  Rational horizon = report.completion + Rational(1);
  flush_until(horizon);

  for (ProcId p = 1; p < n; ++p) {
    if (!sent_at[p].has_value()) {
      violate(std::string("p").append(std::to_string(p)).append(
          " never sent its contribution"));
    }
  }
  if (contributions[0] != n) {
    violate("root combined " + std::to_string(contributions[0]) + " of " +
            std::to_string(n) + " contributions");
  }
  report.ok = report.violations.empty();
  return report;
}

// ---- Mutant corpus ----------------------------------------------------------

/// One to three random edits of `base` over n processors: a time shifted by
/// a multiple of `step` (kept >= 0), a retargeted receiver or sender, a
/// duplicated event, a dropped event, or an endpoint moved out of range.
Schedule mutate(const Schedule& base, std::uint64_t n, const Rational& step,
                Xoshiro256& rng) {
  std::vector<SendEvent> events = base.events();
  const std::uint64_t edits = rng.uniform(1, 3);
  for (std::uint64_t edit = 0; edit < edits && !events.empty(); ++edit) {
    const std::size_t victim = rng.uniform(0, events.size() - 1);
    SendEvent& e = events[victim];
    switch (rng.uniform(0, 5)) {
      case 0: {  // shift the send time
        const auto k = static_cast<std::int64_t>(rng.uniform(0, 8));
        const Rational shifted = e.t + Rational(k - 4) * step;
        if (shifted >= Rational(0)) e.t = shifted;
        break;
      }
      case 1:  // retarget the send
        e.dst = static_cast<ProcId>(rng.uniform(0, n - 1));
        if (e.dst == e.src) e.dst = (e.dst + 1) % static_cast<ProcId>(n);
        break;
      case 2: {  // duplicate the event
        const SendEvent copy = e;
        events.push_back(copy);
        break;
      }
      case 3:  // drop the event
        events.erase(events.begin() + static_cast<std::ptrdiff_t>(victim));
        break;
      case 4:  // move the send to another sender (p0 included)
        e.src = static_cast<ProcId>(rng.uniform(0, n - 1));
        if (e.src == e.dst) e.src = (e.src + 1) % static_cast<ProcId>(n);
        break;
      default:  // move one endpoint out of range
        if (rng.uniform(0, 1) == 0) {
          e.src = static_cast<ProcId>(n + rng.uniform(0, 2));
        } else {
          e.dst = static_cast<ProcId>(n + rng.uniform(0, 2));
        }
        if (e.src == e.dst) ++e.dst;
        break;
    }
  }
  Schedule mutant;
  for (SendEvent& e : events) mutant.add(std::move(e));
  return mutant;
}

/// Runs `check` and `reference` on every base schedule and on `per_base`
/// mutants of each, expecting identical reports; returns how many mutants
/// were checked. Both outcomes must occur for the agreement to mean much.
template <typename Check, typename Reference>
std::size_t expect_identical(const std::vector<Schedule>& bases, std::uint64_t n,
                             const Rational& step, std::uint64_t seed,
                             std::size_t per_base, const Check& check,
                             const Reference& reference) {
  Xoshiro256 rng(seed);
  std::size_t mutants = 0;
  std::size_t accepted = 0;
  std::size_t rejected = 0;
  const auto compare = [&](const Schedule& s, const std::string& what) {
    const auto lib = check(s);
    const auto ref = reference(s);
    EXPECT_EQ(lib.ok, ref.ok) << what;
    EXPECT_EQ(lib.completion, ref.completion) << what;
    EXPECT_EQ(lib.violations, ref.violations) << what;
    (lib.ok ? accepted : rejected) += 1;
  };
  for (std::size_t b = 0; b < bases.size(); ++b) {
    compare(bases[b], "base " + std::to_string(b));
    for (std::size_t i = 0; i < per_base; ++i) {
      compare(mutate(bases[b], n, step, rng),
              "base " + std::to_string(b) + " mutant " + std::to_string(i));
      ++mutants;
    }
  }
  EXPECT_GT(accepted, bases.size());
  EXPECT_GT(rejected, mutants / 2);
  return mutants;
}

TEST(PortCheckCrosscheck, HeteroMatchesPreChangeLoop) {
  const std::uint64_t n = 11;
  for (const std::uint64_t seed : {3ULL, 17ULL}) {
    const HeteroLatency lat = HeteroLatency::random(n, Rational(1), Rational(7, 2), seed);
    const std::vector<Schedule> bases = {hetero_greedy_broadcast(lat),
                                         hetero_conservative_broadcast(lat)};
    const std::size_t mutants = expect_identical(
        bases, n, Rational(1, 4), seed, 120,
        [&](const Schedule& s) { return simulate_hetero(s, lat); },
        [&](const Schedule& s) { return ref_simulate_hetero(s, lat); });
    EXPECT_GE(mutants, 200u);
  }
}

TEST(PortCheckCrosscheck, TwoLevelMatchesPreChangeLoop) {
  const TwoLevelParams params{14, 4, Rational(1), Rational(7, 2)};
  const std::vector<Schedule> bases = {hierarchical_two_level_schedule(params),
                                       hierarchical_flat_schedule(params)};
  const std::size_t mutants = expect_identical(
      bases, params.n, Rational(1, 4), 29, 150,
      [&](const Schedule& s) { return simulate_two_level(s, params); },
      [&](const Schedule& s) { return ref_simulate_two_level(s, params); });
  EXPECT_GE(mutants, 200u);
}

TEST(PortCheckCrosscheck, KPortedMatchesPreChangeLoop) {
  for (const std::uint64_t k : {1ULL, 2ULL, 3ULL}) {
    const PostalParams params(20, Rational(5, 2));
    const std::vector<Schedule> bases = {kported_bcast_schedule(params, k)};
    const std::size_t mutants = expect_identical(
        bases, params.n(), Rational(1, 4), 40 + k, 200,
        [&](const Schedule& s) { return validate_kported(s, params, k); },
        [&](const Schedule& s) { return ref_validate_kported(s, params, k); });
    EXPECT_GE(mutants, 200u);
  }
}

TEST(PortCheckCrosscheck, LogPMatchesPreChangeLoop) {
  // Whole-grid shifts keep distinct windows at least max(o, g) apart and
  // could not tell a window length of max(o, g) from one of 1. So shifts
  // use the half grid, and the second base is the optimal tree for g = 1
  // checked under the real gap: its windows are one unit apart.
  for (const LogPParams& params :
       {LogPParams{Rational(4), Rational(1), Rational(2), 16},
        LogPParams{Rational(15, 2), Rational(1, 2), Rational(5, 2), 13}}) {
    const LogPParams unit_gap{params.L, params.o, Rational(1), params.P};
    const std::vector<Schedule> bases = {logp_bcast_schedule(params),
                                         logp_bcast_schedule(unit_gap)};
    const std::size_t mutants = expect_identical(
        bases, params.P, params.effective_gap() / Rational(2), 53, 200,
        [&](const Schedule& s) { return validate_logp_schedule(s, params); },
        [&](const Schedule& s) { return ref_validate_logp_schedule(s, params); });
    EXPECT_GE(mutants, 200u);
  }
}

TEST(PortCheckCrosscheck, ReduceMatchesPreChangeLoop) {
  for (const Rational& lambda : {Rational(2), Rational(5, 2)}) {
    const PostalParams params(14, lambda);
    const std::vector<Schedule> bases = {reduce_schedule(params)};
    const std::size_t mutants = expect_identical(
        bases, params.n(), Rational(1, 4), 61, 200,
        [&](const Schedule& s) { return validate_reduce(s, params); },
        [&](const Schedule& s) { return ref_validate_reduce(s, params); });
    EXPECT_GE(mutants, 200u);
  }
}

// ---- Non-monotone receive windows -------------------------------------------

// Clusters {p0, p1} and {p2}: intra latency 1, inter latency 4. p0 informs
// p2 (arrives 4), p2 forwards to p1 at 4 (window [7, 8)), and p0 sends to
// p1 later than p2 does but over the cheap wire, so its receive window on
// p1 comes first. A port that kept only its last window end would call
// every such pair a conflict.
Schedule later_send_arrives_earlier(const Rational& p0_to_p1) {
  Schedule s;
  s.add(0, 2, 0, Rational(0));
  s.add(2, 1, 0, Rational(4));
  s.add(0, 1, 0, p0_to_p1);
  return s;
}

template <typename Simulate>
void expect_non_monotone_receives(const Simulate& simulate) {
  // p0 -> p1 at 5 arrives 6: window [5, 6) lies before [7, 8).
  const auto apart = simulate(later_send_arrives_earlier(Rational(5)));
  EXPECT_TRUE(apart.ok) << (apart.violations.empty() ? "" : apart.violations[0]);
  EXPECT_EQ(apart.completion, Rational(8));
  // p0 -> p1 at 13/2 arrives 15/2: window [13/2, 15/2) overlaps [7, 8).
  const auto clash = simulate(later_send_arrives_earlier(Rational(13, 2)));
  ASSERT_EQ(clash.violations.size(), 1u);
  EXPECT_NE(clash.violations[0].find("receive-port conflict"), std::string::npos);
  EXPECT_FALSE(clash.ok);
}

TEST(PortCheckCrosscheck, HeteroAcceptsALaterSendThatArrivesEarlier) {
  const HeteroLatency lat = HeteroLatency::two_level(3, 2, Rational(1), Rational(4));
  expect_non_monotone_receives(
      [&](const Schedule& s) { return simulate_hetero(s, lat); });
}

TEST(PortCheckCrosscheck, TwoLevelAcceptsALaterSendThatArrivesEarlier) {
  const TwoLevelParams params{3, 2, Rational(1), Rational(4)};
  expect_non_monotone_receives(
      [&](const Schedule& s) { return simulate_two_level(s, params); });
}

}  // namespace
}  // namespace postal
