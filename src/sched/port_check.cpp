#include "sched/port_check.hpp"

#include <algorithm>
#include <optional>

namespace postal {

std::vector<SendEvent> time_sorted(const Schedule& schedule) {
  std::vector<SendEvent> events = schedule.events();
  std::stable_sort(events.begin(), events.end(),
                   [](const SendEvent& a, const SendEvent& b) { return a.t < b.t; });
  return events;
}

PortCheckReport check_port_windows(const Schedule& schedule, std::uint64_t n,
                                   const PortModel& model) {
  PortCheckReport report;
  PortClaims ports(n, model.window);
  std::vector<std::optional<Rational>> informed(n);
  informed[0] = Rational(0);

  for (const SendEvent& e : time_sorted(schedule)) {
    if (e.src >= n || e.dst >= n) {
      report.violate(e, "processor id out of range");
      continue;
    }
    const auto& held = informed[e.src];
    if (!held.has_value() || e.t < *held) report.violate(e, model.not_informed);
    if (!(model.claim_send ? model.claim_send(e) : ports.send(e))) {
      report.violate(e, model.send_conflict);
    }
    const Rational arrive = model.arrival(e);
    if (!ports.receive(e, arrive)) report.violate(e, model.recv_conflict);
    auto& dst = informed[e.dst];
    if (!dst.has_value() || arrive < *dst) dst = arrive;
    report.completion = rmax(report.completion, arrive);
  }
  for (ProcId p = 0; p < n; ++p) {
    if (!informed[p].has_value()) {
      report.violations.push_back(proc_text(p, " never informed"));
    }
  }
  report.ok = report.violations.empty();
  return report;
}

}  // namespace postal
