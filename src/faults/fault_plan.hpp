// Deterministic fault injection: the plan data model.
//
// The paper's MPS(n, lambda) is perfectly reliable; one crashed relay in
// the generalized Fibonacci tree silently orphans its whole subtree. A
// FaultPlan makes that scenario -- and message loss and latency spikes --
// expressible as *pure data*: no callbacks, no wall-clock, nothing that
// could differ between two runs. Both simulators (sim/machine, net/
// packet_sim) accept a plan via attach_faults(); executing the same plan
// twice produces bitwise-identical traces, and attaching no plan leaves
// the simulators on their historical code path (regression-tested to be
// byte-identical).
//
// The three fault classes, with exact semantics (docs/FAULTS.md):
//
//   CrashFault    -- processor `proc` halts at exact Rational `time`: it
//                    performs no send whose port slot starts at t >= time
//                    and completes no receive whose arrival is >= time.
//                    Messages it sent before crashing still arrive.
//   LinkLoss      -- each transmission on the directed link src -> dst is
//                    dropped with probability `p` (a seeded Bernoulli
//                    draw; the k-th transmission on a link draws a value
//                    determined only by (seed, src, dst, k), so draws are
//                    independent of event interleaving). `max_losses`
//                    bounds the total drops on the link (0 = unbounded);
//                    a bounded burst is the "fair lossy link" assumption
//                    reliable broadcast needs -- no protocol can beat an
//                    adversary that eats every retransmission.
//   LatencySpike  -- a send whose transmission starts in [from, until)
//                    takes lambda + extra instead of lambda to arrive.
//
// A plan is JSON-serializable (fault_plan_to_json / parse_fault_plan) so
// the CLI can run `postal_cli faults ... --plan plan.json`, and seeded
// random plans (random_fault_plan) drive the chaos suite.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "model/params.hpp"
#include "support/rational.hpp"

namespace postal {

/// Processor `proc` halts at exact time `time` (>= 0).
struct CrashFault {
  ProcId proc = 0;
  Rational time;

  friend bool operator==(const CrashFault&, const CrashFault&) = default;
};

/// Seeded Bernoulli loss on the directed link src -> dst.
struct LinkLoss {
  ProcId src = 0;
  ProcId dst = 0;
  Rational p;                    ///< loss probability in [0, 1]
  std::uint64_t max_losses = 0;  ///< cap on drops for this link; 0 = unbounded

  friend bool operator==(const LinkLoss&, const LinkLoss&) = default;
};

/// Sends starting in [from, until) incur `extra` additional latency.
struct LatencySpike {
  Rational from;
  Rational until;
  Rational extra;

  friend bool operator==(const LatencySpike&, const LatencySpike&) = default;
};

/// A complete, self-contained fault scenario. Pure data; every simulator
/// behavior under a plan is a deterministic function of (plan, workload).
struct FaultPlan {
  std::uint64_t seed = 0;  ///< drives the Bernoulli loss draws
  std::vector<CrashFault> crashes;
  std::vector<LinkLoss> losses;
  std::vector<LatencySpike> spikes;

  /// True iff the plan injects nothing (attaching it must be a no-op).
  [[nodiscard]] bool empty() const noexcept {
    return crashes.empty() && losses.empty() && spikes.empty();
  }

  /// Throws InvalidArgument unless every processor id is < n, every
  /// probability is in [0, 1], every crash time is >= 0, and every spike
  /// window is well-formed (0 <= from < until, extra >= 0).
  void validate(std::uint64_t n) const;

  friend bool operator==(const FaultPlan&, const FaultPlan&) = default;
};

/// The ranks below n that `plan` crashes (nullptr = none), sorted, unique.
[[nodiscard]] std::vector<ProcId> crashed_ranks(std::uint64_t n, const FaultPlan* plan);

/// Serialize to a single JSON object with exact-string rationals, e.g.
///   {"seed":7,"crashes":[{"proc":3,"time":"5/2"}],
///    "losses":[{"src":0,"dst":3,"p":"1/10","max_losses":3}],
///    "spikes":[{"from":"3","until":"6","extra":"2"}]}
/// The output is linted (obs-style) by construction: parse_fault_plan
/// round-trips it exactly.
[[nodiscard]] std::string fault_plan_to_json(const FaultPlan& plan);

/// Parse the JSON form above (a strict subset of JSON: objects, arrays,
/// unsigned integers, and rational strings). Throws InvalidArgument on
/// malformed input or unknown keys.
[[nodiscard]] FaultPlan parse_fault_plan(const std::string& json);

/// Knobs for seeded random plan generation.
struct RandomFaultOptions {
  std::uint64_t crashes = 1;   ///< processors to crash (origin 0 is never crashed)
  Rational loss_p{0};          ///< per-link loss probability for chosen links
  std::uint64_t lossy_links = 0;  ///< number of random directed links made lossy
  std::uint64_t max_losses = 3;   ///< per-link loss cap (see LinkLoss); keep it
                                  ///< < the reliable protocol's max_attempts so
                                  ///< every live processor is reachable
  Rational crash_window{0};    ///< crash times drawn uniformly from the grid
                               ///< [0, crash_window]; 0 = derive from f_lambda(n)
  std::uint64_t spikes = 0;    ///< latency-spike windows to generate
};

/// Generate a reproducible random plan for MPS(params.n(), params.lambda()):
/// `seed` fully determines the result. Crash times land on the lambda grid
/// (multiples of 1/q) inside the window so they interleave exactly with
/// event times; processor 0 (the broadcast origin) is never crashed.
[[nodiscard]] FaultPlan random_fault_plan(const PostalParams& params,
                                          std::uint64_t seed,
                                          const RandomFaultOptions& options = {});

}  // namespace postal
