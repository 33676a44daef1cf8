// Cross-validation of the validator itself: an independent, deliberately
// naive O(E^2) reference implementation of the postal-model rules is run
// against validate_schedule on (a) every algorithm's schedules and (b) a
// fuzz corpus of randomly mutated schedules. The two implementations must
// agree on accept/reject everywhere. A second reference -- the validator's
// earlier algorithm, an IntervalSet per port -- must agree string for
// string on the full report.
#include <gtest/gtest.h>

#include <algorithm>
#include <optional>
#include <sstream>
#include <string>
#include <vector>

#include "sched/registry.hpp"
#include "sim/validator.hpp"
#include "support/interval_set.hpp"
#include "support/prng.hpp"
#include "test_util.hpp"

namespace postal {
namespace {

/// Reference rules, written as directly from Definitions 1-2 as possible:
/// pairwise interval checks and a fixpoint for causality. No IntervalSet,
/// no event sorting tricks.
bool reference_valid(const Schedule& schedule, const PostalParams& params,
                     std::uint32_t messages, bool require_coverage) {
  const std::uint64_t n = params.n();
  const Rational& lambda = params.lambda();
  const auto& events = schedule.events();

  for (const SendEvent& e : events) {
    if (e.src >= n || e.dst >= n || e.msg >= messages) return false;
  }
  // Send-port: same source, |t1 - t2| >= 1. Receive-port: same dest,
  // |a1 - a2| >= 1 (arrivals are t + lambda).
  for (std::size_t i = 0; i < events.size(); ++i) {
    for (std::size_t j = i + 1; j < events.size(); ++j) {
      const auto& a = events[i];
      const auto& b = events[j];
      const Rational dt = a.t < b.t ? b.t - a.t : a.t - b.t;
      if (a.src == b.src && dt < Rational(1)) return false;
      if (a.dst == b.dst && dt < Rational(1)) return false;
    }
  }
  // Causality by fixpoint: start with the origin holding everything and
  // repeatedly mark deliveries whose sender already held the message early
  // enough, until nothing changes. Then every event must be marked.
  std::vector<std::optional<Rational>> holds(n * messages);
  for (MsgId msg = 0; msg < messages; ++msg) holds[0 * messages + msg] = Rational(0);
  std::vector<bool> justified(events.size(), false);
  bool changed = true;
  while (changed) {
    changed = false;
    for (std::size_t i = 0; i < events.size(); ++i) {
      if (justified[i]) continue;
      const auto& e = events[i];
      const auto& held = holds[e.src * messages + e.msg];
      if (held.has_value() && *held <= e.t) {
        justified[i] = true;
        auto& dst = holds[e.dst * messages + e.msg];
        const Rational arrive = e.t + lambda;
        if (!dst.has_value() || arrive < *dst) dst = arrive;
        changed = true;
      }
    }
  }
  if (!std::all_of(justified.begin(), justified.end(), [](bool b) { return b; })) {
    return false;
  }
  if (require_coverage) {
    for (std::uint64_t p = 1; p < n; ++p) {
      for (MsgId msg = 0; msg < messages; ++msg) {
        if (!holds[p * messages + msg].has_value()) return false;
      }
    }
  }
  return true;
}

bool library_valid(const Schedule& schedule, const PostalParams& params,
                   std::uint32_t messages, bool require_coverage) {
  ValidatorOptions options;
  options.messages = messages;
  options.require_coverage = require_coverage;
  return validate_schedule(schedule, params, options).ok;
}

/// The validator's algorithm before ports kept one window each: every
/// event sorted by time, its "[<event>] " prefix built up front, and each
/// port an IntervalSet whose insert() quotes the first overlapping interval.
/// Rational only; covers the single-origin broadcast goal with crashes and
/// both receive modes. A string-exact reference for the full report.
SimReport reference_report(const Schedule& schedule, const PostalParams& params,
                           const ValidatorOptions& options) {
  const std::uint64_t n = params.n();
  const std::uint32_t messages = options.messages;
  SimReport report;
  report.trace = Trace(n, messages);
  auto violate = [&report](const std::string& text) {
    report.violations.push_back(text);
  };
  std::vector<std::optional<Rational>> crash(n);
  for (const CrashFault& c : options.crashes) {
    if (!crash[c.proc].has_value() || c.time < *crash[c.proc]) crash[c.proc] = c.time;
  }
  std::vector<SendEvent> events = schedule.events();
  std::stable_sort(events.begin(), events.end(),
                   [](const SendEvent& a, const SendEvent& b) { return a.t < b.t; });
  std::vector<IntervalSet> send_port(n);
  std::vector<IntervalSet> recv_port(n);
  std::vector<Rational> recv_free(n);
  std::vector<std::optional<Rational>> holds(n * messages);
  for (MsgId msg = 0; msg < messages; ++msg) {
    holds[options.origin * messages + msg] = Rational(0);
  }
  const auto busy = [](const char* port, ProcId p, const IntervalSet::Interval& c) {
    std::ostringstream oss;
    oss << port << " port of p" << p << " already busy on [" << c.lo << ", " << c.hi
        << ")";
    return oss.str();
  };
  for (const SendEvent& e : events) {
    std::ostringstream who;
    who << "[" << e << "] ";
    if (e.src >= n || e.dst >= n) {
      violate(who.str() + "processor id out of range");
      continue;
    }
    if (e.msg >= messages) {
      violate(who.str() + "message id out of range");
      continue;
    }
    if (crash[e.src].has_value() && e.t >= *crash[e.src]) {
      violate(who.str() + "p" + std::to_string(e.src) + " crashed at t=" +
              crash[e.src]->str() + " but sends afterwards");
      continue;
    }
    const auto& held = holds[e.src * messages + e.msg];
    if (!held.has_value() || e.t < *held) {
      violate(who.str() + "sender does not hold the message yet" +
              (held.has_value() ? " (holds it only from t=" + held->str() + ")" : ""));
    }
    if (auto clash = send_port[e.src].insert(e.t, e.t + Rational(1))) {
      violate(who.str() + busy("send", e.src, *clash));
    }
    Rational arrive = e.t + params.lambda();
    if (options.fifo_receive) {
      arrive = rmax(arrive - Rational(1), recv_free[e.dst]) + Rational(1);
      recv_free[e.dst] = arrive;
    }
    if (crash[e.dst].has_value() && arrive >= *crash[e.dst]) continue;
    if (!options.fifo_receive) {
      if (auto clash = recv_port[e.dst].insert(arrive - Rational(1), arrive)) {
        violate(who.str() + busy("receive", e.dst, *clash));
      }
    }
    auto& dst_holds = holds[e.dst * messages + e.msg];
    if (!dst_holds.has_value() || arrive < *dst_holds) dst_holds = arrive;
    report.trace.record(Delivery{e.src, e.dst, e.msg, e.t, arrive});
  }
  if (options.require_coverage) {
    for (const ProcId p : report.trace.uncovered(options.origin)) {
      if (!crash[p].has_value()) {
        violate(test::cat("p", std::to_string(p), " never received all messages"));
      }
    }
  }
  report.makespan = report.trace.makespan();
  report.order_preserving = report.trace.order_preserving();
  report.ok = report.violations.empty();
  return report;
}

/// Everything a report says except which time path produced it.
void expect_same_report(const SimReport& got, const SimReport& want,
                        const std::string& what) {
  EXPECT_EQ(got.violations, want.violations) << what;
  EXPECT_EQ(got.trace.deliveries(), want.trace.deliveries()) << what;
  EXPECT_EQ(got.makespan, want.makespan) << what;
  EXPECT_EQ(got.order_preserving, want.order_preserving) << what;
  EXPECT_EQ(got.ok, want.ok) << what;
}

/// One mutant of a known-good schedule: a single event's time jittered by
/// a quarter multiple, retargeted, given another message id, or dropped.
struct Mutant {
  PostalParams params;
  std::uint32_t messages;
  Schedule schedule;
  std::uint64_t mode;
  std::size_t victim;
};

std::vector<Mutant> fuzz_corpus() {
  Xoshiro256 rng(777);
  std::vector<Mutant> corpus;
  for (const Rational lambda : {Rational(2), Rational(5, 2)}) {
    const PostalParams params(12, lambda);
    const std::uint32_t m = 3;
    const Schedule base = make_multi_schedule(MultiAlgo::kPipeline, params, m);
    for (int trial = 0; trial < 200; ++trial) {
      Schedule mutant;
      const std::size_t victim = rng.uniform(0, base.size() - 1);
      const std::uint64_t mode = rng.uniform(0, 3);
      for (std::size_t i = 0; i < base.size(); ++i) {
        SendEvent e = base.events()[i];
        if (i == victim) {
          switch (mode) {
            case 0: {  // jitter the time by a random quarter multiple
              const auto k = static_cast<std::int64_t>(rng.uniform(0, 8));
              const Rational delta(k - 4, 4);
              if (e.t + delta < Rational(0)) break;
              e.t += delta;
              break;
            }
            case 1:  // retarget the send
              e.dst = static_cast<ProcId>(rng.uniform(0, params.n() - 1));
              if (e.dst == e.src) e.dst = (e.dst + 1) % static_cast<ProcId>(params.n());
              break;
            case 2:  // change the message id
              e.msg = static_cast<MsgId>(rng.uniform(0, m - 1));
              break;
            default:  // drop the event entirely
              continue;
          }
        }
        mutant.add(e);
      }
      corpus.push_back(Mutant{params, m, std::move(mutant), mode, victim});
    }
  }
  return corpus;
}

TEST(ValidatorCrosscheck, AgreesOnEveryAlgorithmSchedule) {
  for (const Rational lambda : {Rational(1), Rational(5, 2), Rational(4)}) {
    for (const std::uint64_t n : {2ULL, 9ULL, 20ULL}) {
      const PostalParams params(n, lambda);
      for (const std::uint64_t m : {1ULL, 3ULL, 6ULL}) {
        for (const MultiAlgo algo : all_multi_algos()) {
          const Schedule s = make_multi_schedule(algo, params, m);
          const auto msgs = static_cast<std::uint32_t>(m);
          EXPECT_TRUE(reference_valid(s, params, msgs, true))
              << algo_name(algo) << " n=" << n << " m=" << m;
          EXPECT_TRUE(library_valid(s, params, msgs, true))
              << algo_name(algo) << " n=" << n << " m=" << m;
        }
      }
    }
  }
}

TEST(ValidatorCrosscheck, AgreesOnFuzzedMutants) {
  // Mutate known-good schedules with random perturbations; the two
  // implementations must return identical verdicts on every mutant.
  std::uint64_t rejected = 0;
  std::uint64_t accepted = 0;
  for (const Mutant& mu : fuzz_corpus()) {
    const bool lib = library_valid(mu.schedule, mu.params, mu.messages, true);
    const bool ref = reference_valid(mu.schedule, mu.params, mu.messages, true);
    EXPECT_EQ(lib, ref) << "lambda=" << mu.params.lambda() << " mode=" << mu.mode
                        << " victim=" << mu.victim;
    (lib ? accepted : rejected) += 1;
  }
  // The corpus must exercise both outcomes for the agreement to mean much.
  EXPECT_GT(rejected, 50u);
  EXPECT_GT(accepted, 5u);
}

TEST(ValidatorCrosscheck, FullReportMatchesIntervalSetReference) {
  // The same corpus, now string-exact: violations (with the intervals they
  // quote), deliveries, makespan and order flag, on both time paths, both
  // receive modes, with and without a crash.
  std::uint64_t index = 0;
  std::uint64_t clashes = 0;
  for (const Mutant& mu : fuzz_corpus()) {
    ++index;
    for (const TimePath path : {TimePath::kAuto, TimePath::kRational}) {
      for (const bool fifo : {false, true}) {
        for (const bool crashed : {false, true}) {
          ValidatorOptions options;
          options.messages = mu.messages;
          options.time_path = path;
          options.fifo_receive = fifo;
          if (crashed) {
            const auto p = static_cast<ProcId>(1 + index % (mu.params.n() - 1));
            options.crashes.push_back(
                CrashFault{p, Rational(static_cast<std::int64_t>(index % 24), 2)});
          }
          const SimReport got = validate_schedule(mu.schedule, mu.params, options);
          const SimReport want = reference_report(mu.schedule, mu.params, options);
          expect_same_report(got, want,
                             "mutant " + std::to_string(index) + " fifo=" +
                                 std::to_string(fifo) + " crashed=" +
                                 std::to_string(crashed));
          for (const std::string& v : want.violations) {
            if (v.find("already busy") != std::string::npos) ++clashes;
          }
        }
      }
    }
  }
  // The port clause must actually fire for its quoted intervals to count.
  EXPECT_GT(clashes, 100u);
}

TEST(ValidatorCrosscheck, CrashEdgesMatchIntervalSetReference) {
  // The crash table is built only when crashes are declared, and every
  // lookup goes through one helper on both time paths. Its edges, string
  // for string against the reference: no crash at all, crashes at t = 0
  // (the origin too), and crashes at the last send tick on the sender of
  // that send and on its receiver, alone and after an earlier crash of the
  // same sender (the earliest must win).
  struct Base {
    PostalParams params;
    std::uint32_t messages;
    Schedule schedule;
  };
  std::vector<Base> bases;
  for (const Rational lambda : {Rational(2), Rational(5, 2)}) {
    const PostalParams params(12, lambda);
    bases.push_back({params, 3, make_multi_schedule(MultiAlgo::kPipeline, params, 3)});
    bases.push_back({params, 1, make_multi_schedule(MultiAlgo::kRepeat, params, 1)});
  }
  for (const Base& b : bases) {
    const std::vector<SendEvent>& events = b.schedule.events();
    const SendEvent& last = *std::max_element(
        events.begin(), events.end(),
        [](const SendEvent& x, const SendEvent& y) { return x.t < y.t; });
    const auto last_proc = static_cast<ProcId>(b.params.n() - 1);
    const std::vector<std::vector<CrashFault>> cases = {
        {},
        {CrashFault{0, Rational(0)}},
        {CrashFault{1, Rational(0)}, CrashFault{last_proc, Rational(0)}},
        {CrashFault{last.src, last.t}},
        {CrashFault{last.dst, last.t}},
        {CrashFault{last.src, Rational(0)}, CrashFault{last.src, last.t}},
    };
    for (std::size_t c = 0; c < cases.size(); ++c) {
      for (const TimePath path : {TimePath::kAuto, TimePath::kRational}) {
        for (const bool fifo : {false, true}) {
          ValidatorOptions options;
          options.messages = b.messages;
          options.time_path = path;
          options.fifo_receive = fifo;
          options.crashes = cases[c];
          const SimReport got = validate_schedule(b.schedule, b.params, options);
          EXPECT_EQ(got.tick_domain, path == TimePath::kAuto);
          expect_same_report(got, reference_report(b.schedule, b.params, options),
                             test::cat("lambda=", b.params.lambda().str(),
                                       " m=", std::to_string(b.messages),
                                       " case=", std::to_string(c),
                                       " fifo=", std::to_string(fifo)));
          if (c == 0) {
            EXPECT_TRUE(got.ok) << got.summary();
          } else if (c == 3) {
            // The last send starts at its sender's crash: a violation.
            EXPECT_FALSE(got.ok);
          }
        }
      }
    }
  }
}

TEST(ValidatorCrosscheck, PortClashQuotesTheLastAcceptedWindow) {
  const PostalParams params(4, Rational(5, 2));
  Schedule s;
  s.add(0, 1, 0, Rational(0));
  s.add(0, 2, 0, Rational(0));     // same time, same sender: clashes with [0, 1)
  s.add(0, 3, 0, Rational(1));     // send [1, 2), receive [5/2, 7/2)
  s.add(0, 3, 0, Rational(3, 2));  // clashes with [1, 2) and with [5/2, 7/2)
  ValidatorOptions options;
  options.messages = 1;
  options.require_coverage = false;
  const std::vector<std::string> want = {
      "[p0 -> p2 : M1 @ t=0] send port of p0 already busy on [0, 1)",
      "[p0 -> p3 : M1 @ t=3/2] send port of p0 already busy on [1, 2)",
      "[p0 -> p3 : M1 @ t=3/2] receive port of p3 already busy on [5/2, 7/2)",
  };
  for (const TimePath path : {TimePath::kAuto, TimePath::kRational}) {
    options.time_path = path;
    const SimReport report = validate_schedule(s, params, options);
    EXPECT_EQ(report.violations, want);
    expect_same_report(report, reference_report(s, params, options), "clashes");
  }
}

TEST(ValidatorCrosscheck, TouchingWindowsAreAccepted) {
  const PostalParams params(4, Rational(5, 2));
  Schedule s;
  s.add(0, 1, 0, Rational(3, 4));   // send [3/4, 7/4), receive [9/4, 13/4)
  s.add(0, 1, 0, Rational(7, 4));   // send [7/4, 11/4), receive [13/4, 17/4)
  s.add(0, 3, 0, Rational(11, 4));  // send [11/4, 15/4)
  s.add(1, 2, 0, Rational(13, 4));  // p1 holds M1 from 13/4
  ValidatorOptions options;
  options.messages = 1;
  options.require_coverage = false;
  for (const TimePath path : {TimePath::kAuto, TimePath::kRational}) {
    options.time_path = path;
    const SimReport report = validate_schedule(s, params, options);
    EXPECT_TRUE(report.ok) << report.summary();
    EXPECT_EQ(report.tick_domain, path == TimePath::kAuto);
    expect_same_report(report, reference_report(s, params, options), "touching");
  }
}

TEST(ValidatorCrosscheck, UnsortedScheduleReportsLikeItsSortedCopy) {
  const PostalParams params(12, Rational(5, 2));
  const std::uint32_t m = 3;
  const Schedule base = make_multi_schedule(MultiAlgo::kPipeline, params, m);
  // Reversed, with one send moved onto a busy port so the report carries
  // violations too; equal-time events keep their reversed relative order
  // in the stable-sorted copy.
  std::vector<SendEvent> events(base.events().rbegin(), base.events().rend());
  events[events.size() / 2].t += Rational(1, 2);
  Schedule reversed;
  for (const SendEvent& e : events) reversed.add(e);
  std::stable_sort(events.begin(), events.end(),
                   [](const SendEvent& a, const SendEvent& b) { return a.t < b.t; });
  Schedule sorted;
  for (const SendEvent& e : events) sorted.add(e);
  ASSERT_NE(reversed.events(), sorted.events());
  ValidatorOptions options;
  options.messages = m;
  for (const TimePath path : {TimePath::kAuto, TimePath::kRational}) {
    options.time_path = path;
    const SimReport got = validate_schedule(reversed, params, options);
    const SimReport want = validate_schedule(sorted, params, options);
    EXPECT_FALSE(want.ok);
    expect_same_report(got, want, "reversed vs sorted");
    expect_same_report(got, reference_report(reversed, params, options), "reference");
  }
}

TEST(ValidatorCrosscheck, AgreesOnHandCraftedEdgeCases) {
  const PostalParams params(4, Rational(5, 2));
  struct Case {
    const char* what;
    Schedule schedule;
    bool coverage;
  };
  std::vector<Case> cases;
  {
    Case c{"exactly abutting sends", {}, false};
    c.schedule.add(0, 1, 0, Rational(0));
    c.schedule.add(0, 2, 0, Rational(1));
    cases.push_back(std::move(c));
  }
  {
    Case c{"exactly abutting receives", {}, false};
    c.schedule.add(0, 3, 0, Rational(0));
    c.schedule.add(1, 3, 0, Rational(1));  // p1 does not hold the message
    cases.push_back(std::move(c));
  }
  {
    Case c{"forward at exact arrival", {}, false};
    c.schedule.add(0, 1, 0, Rational(0));
    c.schedule.add(1, 2, 0, Rational(5, 2));
    cases.push_back(std::move(c));
  }
  {
    Case c{"forward a hair early", {}, false};
    c.schedule.add(0, 1, 0, Rational(0));
    c.schedule.add(1, 2, 0, Rational(9, 4));
    cases.push_back(std::move(c));
  }
  {
    Case c{"causality needs out-of-order discovery", {}, false};
    // Listed out of time order on purpose.
    c.schedule.add(1, 2, 0, Rational(5, 2));
    c.schedule.add(0, 1, 0, Rational(0));
    cases.push_back(std::move(c));
  }
  for (const auto& c : cases) {
    EXPECT_EQ(library_valid(c.schedule, params, 1, c.coverage),
              reference_valid(c.schedule, params, 1, c.coverage))
        << c.what;
  }
}

}  // namespace
}  // namespace postal
