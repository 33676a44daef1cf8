// Scenario: broadcasting through failures and congestion, and across a
// two-level machine -- the paper's Section 5 "further research" made
// runnable.
//
//   ./adaptive_failover [n]
//
// Part 1: a relay near the root crashes mid-broadcast (expressed as a
// FaultPlan, the library's deterministic fault-injection data model). The
// paper's optimal BCAST silently orphans the relay's whole subtree; the
// reliable_bcast protocol detects the dead child by ack timeout and
// re-roots the orphaned range, reaching every survivor.
//
// Part 2: mid-broadcast the network latency spikes (2 -> 8). The spike is
// the same FaultPlan mechanism (a latency-spike window), measured on the
// event-driven Machine; the adaptive planners replan every split with the
// latency in force and are compared against that measured static run.
//
// Part 3: the same n processors arranged as clusters (cheap intra-cluster
// wires, expensive inter-cluster wires). A flat postal plan at the
// conservative lambda is compared with a hierarchy-aware two-level plan.
#include <cstdint>
#include <iostream>
#include <string>

#include "adaptive/hierarchical.hpp"
#include "adaptive/time_varying.hpp"
#include "faults/fault_plan.hpp"
#include "model/genfib.hpp"
#include "sim/machine.hpp"
#include "sim/protocols/bcast_protocol.hpp"
#include "sim/protocols/reliable_bcast.hpp"
#include "support/table.hpp"

int main(int argc, char** argv) {
  using namespace postal;

  const std::uint64_t n = argc > 1 ? std::stoull(argv[1]) : 256;
  if (n < 4) {
    std::cerr << "need n >= 4 for an interesting failure\n";
    return 1;
  }

  const Rational lambda(2);
  const PostalParams params(n, lambda);
  GenFib fib(lambda);

  std::cout << "Part 1: a relay crashes mid-broadcast (n=" << n
            << ", lambda=" << lambda << ")\n";
  // The root's first delegation owns the largest subtree [j, n) -- crash
  // that relay at the instant its copy of the message would arrive. This
  // is the worst single crash for plain BCAST.
  const auto relay = static_cast<ProcId>(fib.bcast_split(n));
  FaultPlan crash_plan;
  crash_plan.crashes.push_back(CrashFault{relay, lambda});
  std::cout << "fault plan: crash p" << relay << " (owner of ["
            << relay << ", " << n << ")) at t = " << lambda << "\n\n";

  Machine machine(params, 1);
  machine.attach_faults(crash_plan);
  BcastProtocol plain(params);
  const MachineResult plain_result = machine.run(plain);
  const std::uint64_t plain_orphans =
      plain_result.trace.uncovered(0).size() - crash_plan.crashes.size();

  const ReliableBcastReport reliable = run_reliable_bcast(params, &crash_plan);
  if (!reliable.covered || !reliable.validation.ok) {
    std::cerr << "internal error: reliable broadcast failed to recover: "
              << reliable.validation.summary() << "\n";
    return 1;
  }

  TextTable t1({"protocol", "live procs missed", "completion", "overhead"});
  t1.add_row({"BCAST (paper, no acks)", std::to_string(plain_orphans),
              plain_result.trace.makespan().str(), "-"});
  t1.add_row({"reliable_bcast (ack+repair)",
              std::to_string(reliable.uncovered_alive.size()),
              reliable.completion.str(),
              std::string("+")
                  .append(reliable.recovery_overhead.str())
                  .append(" vs f_lambda(n)=")
                  .append(reliable.baseline.str())});
  t1.print(std::cout);
  std::cout << "reliable_bcast: " << reliable.counters.retransmissions
            << " retransmissions, " << reliable.counters.dead_declared
            << " dead declared, " << reliable.counters.repairs << " repair(s)\n";

  std::cout << "\nPart 2: latency spike during a broadcast (lambda 2 -> 8 "
               "from t=3)\n";
  const LatencyProfile spike =
      LatencyProfile::step(Rational(2), Rational(8), Rational(3));
  const Rational adaptive =
      adaptive_broadcast(n, spike, AdaptPolicy::kAdaptive).completion;
  const Rational learned =
      adaptive_broadcast(n, spike, AdaptPolicy::kEstimated).completion;

  // The static planner does not replan: its sends simply experience the
  // spike. That is exactly a FaultPlan latency-spike window, measured on
  // the event-driven Machine instead of assumed.
  FaultPlan spike_plan;
  spike_plan.spikes.push_back(
      LatencySpike{Rational(3), Rational(1'000'000), Rational(6)});
  Machine spiked(params, 1);
  spiked.attach_faults(spike_plan);
  BcastProtocol stale(params);
  const MachineResult spiked_result = spiked.run(stale);
  const Rational fixed = spiked_result.trace.makespan();

  TextTable t2({"planner", "completion", "vs adaptive"});
  t2.add_row({"static (machine run under the spike plan)", fixed.str(),
              fmt(fixed.to_double() / adaptive.to_double(), 3) + "x"});
  t2.add_row({"adaptive (true lambda at each send)", adaptive.str(), "1.000x"});
  t2.add_row({"estimated (EWMA from deliveries)", learned.str(),
              fmt(learned.to_double() / adaptive.to_double(), 3) + "x"});
  t2.print(std::cout);
  std::cout << "(" << spiked_result.faults.spikes_applied
            << " sends stretched by the spike window)\n";

  std::cout << "\nPart 3: two-level machine (clusters of 8; lambda_intra=1, "
               "lambda_inter=8)\n\n";
  const TwoLevelParams two_level{n, 8, Rational(1), Rational(8)};
  const HeteroReport flat =
      simulate_two_level(hierarchical_flat_schedule(two_level), two_level);
  const HeteroReport hier =
      simulate_two_level(hierarchical_two_level_schedule(two_level), two_level);
  if (!flat.ok || !hier.ok) {
    std::cerr << "internal error: hierarchical schedules failed validation\n";
    return 1;
  }
  TextTable t3({"plan", "completion", "speedup"});
  t3.add_row({"flat (single tree at lambda_inter)", flat.completion.str(), "1.000x"});
  t3.add_row({"two-level (leaders first, then clusters)", hier.completion.str(),
              fmt(flat.completion.to_double() / hier.completion.to_double(), 3) + "x"});
  t3.print(std::cout);

  std::cout << "\nTakeaway: acks and timeouts turn the optimal-but-fragile "
               "Fibonacci tree into a protocol that reaches every survivor "
               "(the conservative default timeouts trade recovery speed for "
               "zero false suspicions), adapting to the latency in force "
               "never loses, and a latency hierarchy is worth exploiting -- "
               "all open directions from the paper's Section 5.\n";
  return 0;
}
