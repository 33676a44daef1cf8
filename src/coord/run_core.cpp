#include "coord/run_core.hpp"

namespace postal::coord {

PlanDisturbance scan_plan(const FaultPlan* plan) {
  PlanDisturbance d;
  if (plan == nullptr) return d;
  for (const CrashFault& c : plan->crashes) d.last = rmax(d.last, c.time);
  for (const LatencySpike& s : plan->spikes) {
    d.last = rmax(d.last, s.until + s.extra);
  }
  for (const LinkLoss& l : plan->losses) {
    if (l.p > Rational(0)) {
      if (l.max_losses == 0) d.bounded_losses = false;
      d.loss_budget += static_cast<std::int64_t>(
          std::min<std::uint64_t>(l.max_losses, 64));
    }
  }
  return d;
}

SimReport validate_control_plane(const MachineResult& result, const PostalParams& params,
                                 const FaultPlan* plan, TimePath time_path) {
  ValidatorOptions vopts;
  vopts.messages = 1;
  vopts.preholds = true;  // control-plane traffic: no payload causality
  vopts.fifo_receive = true;
  vopts.require_coverage = false;
  vopts.time_path = time_path;
  if (plan != nullptr) vopts.crashes = plan->crashes;
  return validate_schedule(result.schedule, params, vopts);
}

}  // namespace postal::coord
