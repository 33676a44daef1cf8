// E1 -- Figure 1 of the paper: the generalized Fibonacci broadcast tree for
// a message-passing system with n = 14 processors and communication latency
// lambda = 5/2. The paper's figure shows completion at t = 7.5 with p_0's
// first send going to p_9.
//
// This bench regenerates the tree, prints per-node inform times, validates
// the schedule against every postal-model constraint, and cross-checks the
// completion time against f_lambda(n).
#include <iostream>

#include "model/genfib.hpp"
#include "obs/bench_record.hpp"
#include "sched/bcast.hpp"
#include "sched/broadcast_tree.hpp"
#include "sched/gantt.hpp"
#include "sim/validator.hpp"
#include "support/table.hpp"

int main() {
  using namespace postal;
  const obs::WallClock wall;

  const PostalParams params(14, Rational(5, 2));
  GenFib fib(params.lambda());

  std::cout << "=== E1: Figure 1 -- generalized Fibonacci broadcast tree ===\n";
  std::cout << "MPS(n=14, lambda=5/2)\n\n";

  const Schedule schedule = bcast_schedule(params, fib);
  const BroadcastTree tree = BroadcastTree::from_schedule(schedule, params.n());
  std::cout << tree.render(params.lambda()) << "\n";

  const SimReport report = validate_schedule(schedule, params);
  std::cout << "model validation      : " << (report.ok ? "PASS" : report.summary())
            << "\n";
  std::cout << "simulated completion  : t = " << report.makespan
            << "  (paper: 7 1/2)\n";
  std::cout << "f_lambda(n) prediction: t = " << fib.f(params.n()) << "\n";
  std::cout << "root's first target   : p" << tree.children(0).front()
            << "  (paper: p9)\n\n";

  TextTable table({"processor", "informed at t", "depth", "children"});
  const auto informed = tree.inform_times(params.lambda());
  const auto depth = tree.depths();
  for (ProcId p = 0; p < params.n(); ++p) {
    std::string kids;
    for (const ProcId c : tree.children(p)) {
      if (!kids.empty()) kids += ",";
      kids += "p";
      kids += std::to_string(c);
    }
    // Appended, not "p" + ...: GCC 12 at -O3 reports a false
    // -Werror=restrict inside operator+ on a temporary string.
    table.add_row({std::string("p").append(std::to_string(p)), informed[p].str(),
                   std::to_string(depth[p]), kids.empty() ? "-" : kids});
  }
  table.print(std::cout);

  std::cout << "\nport occupancy timeline (S = sending, R = receiving):\n"
            << render_gantt(schedule, params);

  const bool shape_ok = report.ok && report.makespan == Rational(15, 2) &&
                        tree.children(0).front() == 9;
  std::cout << "\nE1 verdict: " << (shape_ok ? "MATCHES PAPER" : "MISMATCH") << "\n";
  obs::emit_bench_record({"bench_fig1_tree", params.n(), params.lambda(), 1,
                          report.makespan, wall.elapsed_ms(),
                          shape_ok ? "MATCHES PAPER" : "MISMATCH",
                          /*threads_hw=*/0, {{"figure", "1"}}});
  return shape_ok ? 0 : 1;
}
