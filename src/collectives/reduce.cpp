#include "collectives/reduce.hpp"

#include <optional>

#include "model/genfib.hpp"
#include "sched/bcast.hpp"

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
  ReduceReport report;
  PortClaims ports(n);
  std::vector<std::optional<Rational>> sent_at(n);
  // contributions[p]: count of distinct inputs currently combined at p.
  std::vector<std::uint64_t> contributions(n, 1);

  struct PendingArrival {
    Rational arrival;
    ProcId dst;
    std::uint64_t count;
  };
  // Sends come in time order and every arrival is send time + lambda, so
  // arrivals are already in arrival order; `landed` counts those flushed.
  std::vector<PendingArrival> pending;
  std::size_t landed = 0;

  auto flush_until = [&](const Rational& now) {
    for (; landed < pending.size() && pending[landed].arrival <= now; ++landed) {
      const PendingArrival& a = pending[landed];
      if (sent_at[a.dst].has_value() && *sent_at[a.dst] < a.arrival) {
        report.violations.push_back(
            proc_text(a.dst, " already sent its partial result at t=")
                .append(sent_at[a.dst]->str())
                .append(" but a contribution arrives at t=")
                .append(a.arrival.str()));
      } else {
        contributions[a.dst] += a.count;
      }
    }
  };

  for (const SendEvent& e : time_sorted(schedule)) {
    if (e.src >= n || e.dst >= n) {
      report.violate(e, "processor id out of range");
      continue;
    }
    flush_until(e.t);
    if (e.src == 0) {
      report.violate(e, "the reduction root p0 must not send");
      continue;
    }
    if (sent_at[e.src].has_value()) {
      report.violate(e, "processor sends its partial result twice");
      continue;
    }
    sent_at[e.src] = e.t;
    if (!ports.send(e)) report.violate(e, "send-port conflict");
    const Rational arrive = e.t + params.lambda();
    if (!ports.receive(e, arrive)) report.violate(e, "receive-port conflict");
    pending.push_back(PendingArrival{arrive, e.dst, contributions[e.src]});
    report.completion = rmax(report.completion, arrive);
  }
  // Flush everything still in flight.
  flush_until(report.completion + Rational(1));

  for (ProcId p = 1; p < n; ++p) {
    if (!sent_at[p].has_value()) {
      report.violations.push_back(proc_text(p, " never sent its contribution"));
    }
  }
  if (contributions[0] != n) {
    report.violations.push_back("root combined " + std::to_string(contributions[0]) +
                                " of " + std::to_string(n) + " contributions");
  }
  report.ok = report.violations.empty();
  return report;
}

}  // namespace postal
