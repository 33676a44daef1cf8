#include "sim/validator.hpp"

#include <algorithm>
#include <optional>
#include <sstream>
#include <string>

namespace postal {

std::string SimReport::summary() const {
  if (ok) return "ok";
  std::ostringstream oss;
  oss << violations.size() << " violation(s):";
  for (const auto& v : violations) oss << "\n  - " << v;
  return oss.str();
}

namespace {

/// "p<p><what>[<number>]", built by appending: GCC 12 at -O3 reports a
/// false -Werror=restrict inside std::string operator+ on a temporary.
std::string proc_text(ProcId p, const char* what, std::optional<MsgId> number = {}) {
  std::string text = "p";
  text += std::to_string(p);
  text += what;
  if (number.has_value()) text += std::to_string(*number);
  return text;
}

// The validation loop is written once, generic over the time
// representation (docs/PERFORMANCE.md). Two policies instantiate it:
//
//   RationalOps -- the historical reference: Rational times, checked
//                  arithmetic everywhere.
//   TickOps     -- int64 ticks at resolution 1/q: plain integer adds and
//                  compares. Chosen by a static probe (below) only when
//                  every input time is exactly representable and a 128-bit
//                  bound proves no tick expression can overflow, so the
//                  loop needs no per-op checks and cannot invoke UB.
//
// Exactness: tick <-> Rational is an order-preserving bijection on the
// admitted inputs, so both instantiations take identical branches, record
// identical deliveries, and -- because conversion round-trips reproduce
// the canonical reduced form -- produce byte-identical violation strings.

struct RationalOps {
  using Time = Rational;
  Rational lambda;
  Rational one{1};

  [[nodiscard]] const Time& event_time(const SendEvent& e, std::size_t i) const {
    static_cast<void>(i);
    return e.t;
  }
  [[nodiscard]] const Rational& rat(const Time& t) const { return t; }
};

struct TickOps {
  using Time = Tick;
  TickDomain dom;
  Tick lambda = 0;
  Tick one = 0;
  const std::vector<Tick>* event_ticks = nullptr;  // pre-converted, by index

  [[nodiscard]] Time event_time(const SendEvent& e, std::size_t i) const {
    static_cast<void>(e);
    return (*event_ticks)[i];
  }
  [[nodiscard]] Rational rat(Time t) const { return dom.to_rational(t); }
};

template <typename Ops>
void validate_events(const Ops& ops, const std::vector<SendEvent>& events,
                     std::uint64_t n, std::uint32_t messages,
                     const ValidatorOptions& options,
                     const std::vector<std::optional<typename Ops::Time>>& crash,
                     SimReport& report) {
  using Time = typename Ops::Time;
  auto violate = [&report](const std::string& text) {
    report.violations.push_back(text);
  };

  // Port exclusivity keeps one window per port: the end of the last window
  // the port accepted. This is exact, not a heuristic. Events are visited
  // in nondecreasing send time and lambda is constant, so the windows
  // offered to one port -- [t, t+1) on a send port, [t+lambda-1, t+lambda)
  // on a strict receive port -- arrive in nondecreasing start. Every window
  // has unit length and accepted windows are disjoint, so each earlier
  // accepted window ends at or before the last one starts: a new window
  // overlaps some accepted window iff it starts before the last one ends,
  // and the last one is then the clash to quote.
  std::vector<std::optional<Time>> send_end(n);
  std::vector<std::optional<Time>> recv_end(n);
  auto claim = [&ops](std::optional<Time>& end, const Time& lo) {
    if (end.has_value() && lo < *end) return false;
    end = lo + ops.one;
    return true;
  };
  auto busy = [&ops, &violate](const SendEvent& e, const char* port, ProcId p,
                               const Time& end) {
    violate(violation_prefix(e) + port + " port of p" + std::to_string(p) +
            " already busy on [" + ops.rat(end - ops.one).str() + ", " +
            ops.rat(end).str() + ")");
  };
  std::vector<Time> recv_free(options.fifo_receive ? n : 0, Time{});
  // holds[p * messages + msg]: earliest time p holds msg (origin: 0).
  std::vector<std::optional<Time>> holds(n * messages);
  if (options.preholds) {
    for (auto& h : holds) h = Time{};
  } else if (options.origins.empty()) {
    for (MsgId msg = 0; msg < messages; ++msg) {
      holds[options.origin * messages + msg] = Time{};
    }
  } else {
    POSTAL_REQUIRE(options.origins.size() == messages,
                   "validate_schedule: origins must name one processor per message");
    for (MsgId msg = 0; msg < messages; ++msg) {
      POSTAL_REQUIRE(options.origins[msg] < n,
                     "validate_schedule: message origin out of range");
      holds[options.origins[msg] * messages + msg] = Time{};
    }
  }

  // Arrivals repeat across many events; convert each distinct one once.
  std::optional<Time> arrive_cached;
  Rational arrive_rat;
  for (std::size_t i = 0; i < events.size(); ++i) {
    const SendEvent& e = events[i];
    if (e.src >= n || e.dst >= n) {
      violate(violation_prefix(e) + "processor id out of range");
      continue;
    }
    if (e.msg >= messages) {
      violate(violation_prefix(e) + "message id out of range");
      continue;
    }
    const Time t = ops.event_time(e, i);
    // A dead processor cannot transmit: such an event proves the schedule
    // was not produced under the declared crashes.
    if (crash[e.src].has_value() && t >= *crash[e.src]) {
      violate(violation_prefix(e) + "p" + std::to_string(e.src) + " crashed at t=" +
              ops.rat(*crash[e.src]).str() + " but sends afterwards");
      continue;
    }
    // Causality: the sender must hold the message when the send starts.
    const auto& held = holds[e.src * messages + e.msg];
    if (!held.has_value() || t < *held) {
      violate(violation_prefix(e) + "sender does not hold the message yet" +
              (held.has_value() ? " (holds it only from t=" + ops.rat(*held).str() + ")"
                                : ""));
    }
    // Send-port exclusivity: [t, t+1).
    if (!claim(send_end[e.src], t)) busy(e, "send", e.src, *send_end[e.src]);
    // Receive port. Strict mode: exclusivity of [t+lambda-1, t+lambda),
    // overlap is a violation. FIFO mode: simultaneous arrivals serialize in
    // nominal-arrival order (the Machine's input-port queueing), so overlap
    // delays the arrival instead. Either way a delivery reaching a crashed
    // receiver at or after its crash time is void: no port use, no hold.
    Time arrive = t + ops.lambda;
    bool voided;
    if (options.fifo_receive) {
      const Time window = std::max(arrive - ops.one, recv_free[e.dst]);
      arrive = window + ops.one;
      recv_free[e.dst] = arrive;
      voided = crash[e.dst].has_value() && arrive >= *crash[e.dst];
    } else {
      voided = crash[e.dst].has_value() && arrive >= *crash[e.dst];
      if (!voided && !claim(recv_end[e.dst], arrive - ops.one)) {
        busy(e, "receive", e.dst, *recv_end[e.dst]);
      }
    }
    if (voided) continue;
    auto& dst_holds = holds[e.dst * messages + e.msg];
    if (!dst_holds.has_value() || arrive < *dst_holds) dst_holds = arrive;
    if (arrive_cached != arrive) {
      arrive_cached = arrive;
      arrive_rat = ops.rat(arrive);
    }
    report.trace.record(Delivery{e.src, e.dst, e.msg, e.t, arrive_rat});
  }

  if (options.require_coverage) {
    const auto is_crashed = [&crash](ProcId p) { return crash[p].has_value(); };
    if (!options.required.empty()) {
      for (const auto& [p, msg] : options.required) {
        POSTAL_REQUIRE(p < n && msg < messages,
                       "validate_schedule: required delivery out of range");
        const ProcId msg_origin =
            options.origins.empty() ? options.origin : options.origins[msg];
        if (p == msg_origin || is_crashed(p)) continue;
        if (!holds[p * messages + msg].has_value()) {
          violate(proc_text(p, " never received required M", msg + 1));
        }
      }
    } else if (!options.origins.empty()) {
      // All-to-all goal with per-message origins.
      for (ProcId p = 0; p < n; ++p) {
        if (is_crashed(p)) continue;
        for (MsgId msg = 0; msg < messages; ++msg) {
          if (p == options.origins[msg]) continue;
          if (!holds[p * messages + msg].has_value()) {
            violate(proc_text(p, " never received M", msg + 1));
          }
        }
      }
    } else {
      for (const ProcId p : report.trace.uncovered(options.origin)) {
        if (is_crashed(p)) continue;
        violate(proc_text(p, " never received all messages"));
      }
      if (messages == 0 && n > 1) {
        bool all_crashed = true;
        for (ProcId p = 0; p < n; ++p) {
          if (p != options.origin && !is_crashed(p)) all_crashed = false;
        }
        if (!all_crashed) violate("schedule delivers no messages but n > 1");
      }
    }
  }
}

/// Static tick-path probe: fold every time the loop will touch into one
/// resolution q, convert, and bound the largest tick expression the loop
/// can form (arrive = t + lambda, +- 1 per port window, plus one unit per
/// event of FIFO receive drift) in 128-bit arithmetic. Any failure --
/// unrepresentable time, lcm overflow, bound exceeded -- returns nullopt
/// and validation stays on the Rational reference path.
struct TickPlan {
  TickOps ops;
  std::vector<Tick> event_ticks;
  std::vector<std::optional<Tick>> crash;
};

std::optional<TickPlan> probe_ticks(
    const std::vector<SendEvent>& events, const Rational& lambda,
    const std::vector<std::optional<Rational>>& crash_times) {
  std::int64_t q = lambda.den();
  auto fold = [&q](const Rational& r) {
    const std::optional<std::int64_t> folded = TickDomain::fold_denominator(q, r);
    if (!folded.has_value()) return false;
    q = *folded;
    return true;
  };
  // Schedules repeat each send time many times: fold and convert a time
  // only when it differs from the previous event's.
  const auto repeats = [&events](std::size_t i) {
    return i > 0 && events[i].t == events[i - 1].t;
  };
  for (std::size_t i = 0; i < events.size(); ++i) {
    if (!repeats(i) && !fold(events[i].t)) return std::nullopt;
  }
  for (const auto& c : crash_times) {
    if (c.has_value() && !fold(*c)) return std::nullopt;
  }

  const TickDomain dom(q);
  const std::optional<Tick> lambda_ticks = dom.to_ticks(lambda);
  if (!lambda_ticks.has_value()) return std::nullopt;

  TickPlan plan{TickOps{dom, *lambda_ticks, q, nullptr}, {}, {}};
  plan.event_ticks.reserve(events.size());
  Tick max_abs = 0;
  for (std::size_t i = 0; i < events.size(); ++i) {
    if (repeats(i)) {
      plan.event_ticks.push_back(plan.event_ticks.back());
      continue;
    }
    const std::optional<Tick> t = dom.to_ticks(events[i].t);
    if (!t.has_value()) return std::nullopt;
    plan.event_ticks.push_back(*t);
    max_abs = std::max(max_abs, *t < 0 ? (*t == INT64_MIN ? INT64_MAX : -*t) : *t);
  }
  plan.crash.resize(crash_times.size());
  for (std::size_t p = 0; p < crash_times.size(); ++p) {
    if (!crash_times[p].has_value()) continue;
    const std::optional<Tick> c = dom.to_ticks(*crash_times[p]);
    if (!c.has_value()) return std::nullopt;
    plan.crash[p] = *c;
    max_abs = std::max(max_abs, *c < 0 ? (*c == INT64_MIN ? INT64_MAX : -*c) : *c);
  }

  __extension__ using int128 = __int128;
  const int128 bound = static_cast<int128>(max_abs) + *lambda_ticks +
                       (static_cast<int128>(events.size()) + 2) * q;
  if (bound >= (int128{1} << 62)) return std::nullopt;
  return plan;
}

}  // namespace

SimReport validate_schedule(const Schedule& schedule, const PostalParams& params,
                            const ValidatorOptions& options) {
  const std::uint64_t n = params.n();
  const Rational& lambda = params.lambda();
  const std::uint32_t messages =
      options.messages != 0 ? options.messages : schedule.message_count();

  SimReport report;
  report.trace = Trace(n, messages);

  POSTAL_REQUIRE(options.origin < n, "validate_schedule: origin out of range");

  // Earliest known crash per processor (docs/FAULTS.md): deliveries at or
  // after it are void, sends at or after it are impossible, and the
  // processor is exempt from coverage.
  std::vector<std::optional<Rational>> crash(n);
  for (const CrashFault& c : options.crashes) {
    POSTAL_REQUIRE(c.proc < n, "validate_schedule: crashed processor out of range");
    auto& slot = crash[c.proc];
    if (!slot.has_value() || c.time < *slot) slot = c.time;
  }

  // Visit events in send-time order so causality state (arrival times) is
  // always known before any later send is examined: an arrival enabling a
  // send at t happened at a send that started at t - lambda < t. Because
  // lambda is a constant, this order is simultaneously nominal-arrival
  // order, which the port and fifo_receive bookkeeping below rely on. Both
  // time paths share it. Machine, ParMachine and the generators emit
  // time-sorted schedules; only an unsorted one pays for a stable sort.
  const auto by_time = [](const SendEvent& a, const SendEvent& b) { return a.t < b.t; };
  std::vector<SendEvent> sorted;
  if (!std::is_sorted(schedule.events().begin(), schedule.events().end(), by_time)) {
    sorted = schedule.events();
    std::stable_sort(sorted.begin(), sorted.end(), by_time);
  }
  const std::vector<SendEvent>& events = sorted.empty() ? schedule.events() : sorted;
  report.trace.reserve(events.size());

  std::optional<TickPlan> plan;
  if (options.time_path == TimePath::kAuto) plan = probe_ticks(events, lambda, crash);
  if (plan.has_value()) {
    plan->ops.event_ticks = &plan->event_ticks;
    validate_events(plan->ops, events, n, messages, options, plan->crash, report);
    report.tick_domain = true;
  } else {
    validate_events(RationalOps{lambda, Rational(1)}, events, n, messages, options,
                    crash, report);
  }
  report.makespan = report.trace.makespan();
  report.order_preserving = report.trace.order_preserving();
  report.ok = report.violations.empty();
  return report;
}

}  // namespace postal
