#include "sched/logp_machine.hpp"

#include "sched/bcast.hpp"

namespace postal {

LogPReport validate_logp_schedule(const Schedule& schedule, const LogPParams& params) {
  params.validate();
  const Rational usable_after = Rational(2) * params.o + params.L;
  // Spacing constraints are interval-exclusivity over windows of length
  // max(o, g): two submissions (or absorptions) closer than that overlap.
  PortModel model;
  model.arrival = [&usable_after](const SendEvent& e) { return e.t + usable_after; };
  model.window = params.effective_gap();
  model.not_informed = "submitting a message that is not yet usable";
  model.send_conflict = "submissions closer than max(o, g)";
  model.recv_conflict = "absorptions closer than max(o, g)";
  return check_port_windows(schedule, params.P, model);
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
