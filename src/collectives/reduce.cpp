#include "collectives/reduce.hpp"

#include <algorithm>
#include <optional>
#include <sstream>

#include "model/genfib.hpp"
#include "sched/bcast.hpp"
#include "support/interval_set.hpp"

namespace postal {

Schedule reduce_schedule(const PostalParams& params) {
  Schedule schedule;
  if (params.n() == 1) return schedule;
  GenFib fib(params.lambda());
  const Schedule bcast = bcast_schedule(params, fib);
  const Rational T = fib.f(params.n());
  // Time reversal: a broadcast send u -> v at t (arriving t + lambda)
  // becomes a combine send v -> u at T - t - lambda (arriving T - t).
  for (const SendEvent& e : bcast.events()) {
    schedule.add(e.dst, e.src, /*msg=*/e.dst, T - e.t - params.lambda());
  }
  schedule.sort();
  return schedule;
}

Rational predict_reduce(const PostalParams& params) {
  if (params.n() == 1) return Rational(0);
  GenFib fib(params.lambda());
  return fib.f(params.n());
}

ReduceReport validate_reduce(const Schedule& schedule, const PostalParams& params) {
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
      // Appended, not "p" + ...: GCC 12 at -O3 reports a false
      // -Werror=restrict inside operator+ on a temporary string.
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

}  // namespace postal
