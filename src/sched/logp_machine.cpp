#include "sched/logp_machine.hpp"

#include <algorithm>
#include <optional>

#include "sched/bcast.hpp"
#include "support/interval_set.hpp"

namespace postal {

LogPReport validate_logp_schedule(const Schedule& schedule, const LogPParams& params) {
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
      violate("p" + std::to_string(p) + " never informed");
    }
  }
  report.ok = report.violations.empty();
  return report;
}

Schedule logp_bcast_schedule(const LogPParams& params) {
  params.validate();
  const Rational gap = params.effective_gap();
  GenFib fib(params.postal_lambda());
  Schedule postal;
  bcast_emit(postal, fib, /*base=*/0, params.P, Rational(0), /*msg=*/0);
  Schedule schedule;
  for (const SendEvent& e : postal.events()) {
    schedule.add(e.src, e.dst, e.msg, e.t * gap);
  }
  schedule.sort();
  return schedule;
}

}  // namespace postal
