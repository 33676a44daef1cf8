// The run core shared by election, consensus and the replicated log
// (docs/COORDINATION.md, "Shared run core").
//
// The three protocols differ in their wire layouts, per-rank state and
// safety clauses, but every run is wired the same way: one protocol
// instance per ParMachine shard with per-shard harvests folded together,
// per-rank logs merged into one canonical event order, the plan scanned
// for its last disturbance and loss budget, a crash-aware control-plane
// validation, and -- for consensus and the log -- a fault-free reference
// run on a sequential Machine and the paper's Algorithm BCAST relay of
// every PROPOSE and COMMIT over a ring of members. That plumbing lives
// here once. coord/validator.cpp deliberately shares none of it: it judges
// what these helpers produce.
#pragma once

#include <algorithm>
#include <cstdint>
#include <iterator>
#include <utility>
#include <vector>

#include "faults/fault_plan.hpp"
#include "model/genfib.hpp"
#include "sim/machine.hpp"
#include "sim/par_machine.hpp"
#include "sim/validator.hpp"

namespace postal::coord {

/// What a run's per-shard instances fold into through `P::harvest`: the
/// summed counters, plus each rank's final state and chronological event
/// log, written by the one shard that owns the rank.
template <typename Counters, typename RankState, typename Event>
struct RunHarvest {
  explicit RunHarvest(std::uint64_t n) : ranks(n), logs(n) {}

  Counters counters;
  std::vector<RankState> ranks;          ///< sized n
  std::vector<std::vector<Event>> logs;  ///< per rank, chronological
};

/// The per-rank logs in canonical order: by time, ties by rank, each
/// rank's chronological order kept -- identical at every thread count.
/// Consumes `logs`.
template <typename Event>
[[nodiscard]] std::vector<Event> merge_events(std::vector<std::vector<Event>>& logs) {
  std::vector<Event> events;
  for (std::vector<Event>& log : logs) {
    std::move(log.begin(), log.end(), std::back_inserter(events));
  }
  std::stable_sort(events.begin(), events.end(), [](const Event& a, const Event& b) {
    if (a.time != b.time) return a.time < b.time;
    return a.rank < b.rank;
  });
  return events;
}

/// Crash-aware validation of a control-plane run: preholds (no payload
/// causality), FIFO receives, no coverage requirement.
[[nodiscard]] SimReport validate_control_plane(const MachineResult& result,
                                               const PostalParams& params,
                                               const FaultPlan* plan, TimePath time_path);

/// Run one `P(params, report.options)` per shard of a ParMachine under
/// `plan` (nullptr = fault-free) at the options' time path and lane count,
/// fold the instances into a `Harvest(n)` through `P::harvest`, and fill
/// the fields every coordination report shares: the result, the summed
/// counters, the canonical event order, the crashed ranks and the
/// control-plane validation. Returns the per-rank final states.
template <typename P, typename Harvest, typename Report>
[[nodiscard]] auto run_sharded(Report& report, const PostalParams& params,
                               const FaultPlan* plan) {
  using Options = decltype(report.options);
  Harvest harvest(params.n());
  ParMachine machine(params, /*messages=*/1);
  machine.set_time_path(report.options.time_path);
  machine.set_threads(report.options.threads);
  if (plan != nullptr) machine.attach_faults(*plan);
  HarvestingFactory<P, Harvest, const PostalParams&, const Options&> factory(
      harvest, params, report.options);
  report.result = machine.run(factory);
  report.counters = harvest.counters;
  report.events = merge_events(harvest.logs);
  report.crashed = crashed_ranks(params.n(), plan);
  report.validation = validate_control_plane(report.result, params, plan,
                                             report.options.time_path);
  return std::move(harvest.ranks);
}

/// The fault-free reference run: one `P(params, options)` on a sequential
/// Machine with no plan attached, harvested.
template <typename P, typename Harvest, typename Options>
[[nodiscard]] Harvest run_reference(const PostalParams& params, const Options& options) {
  Machine machine(params, /*messages=*/1);
  machine.set_time_path(options.time_path);
  P protocol(params, options);
  static_cast<void>(machine.run(protocol));
  Harvest harvest(params.n());
  protocol.harvest(harvest);
  return harvest;
}

/// What a fault plan disturbs, for the settle horizons.
struct PlanDisturbance {
  Rational last;                  ///< latest crash time or spike end + extra
  std::int64_t loss_budget = 0;  ///< sum over lossy links of min(max_losses, 64)
  bool bounded_losses = true;    ///< every lossy link has a finite budget
};

/// Scan `plan` (nullptr = fault-free) for its disturbances.
[[nodiscard]] PlanDisturbance scan_plan(const FaultPlan* plan);

/// Index `idx` of a ring of `m` members renamed so the root sits at 0.
[[nodiscard]] constexpr std::uint64_t ring_rename(std::uint64_t idx, std::uint64_t root,
                                                  std::uint64_t m) {
  return (idx + m - root) % m;
}

/// Algorithm BCAST's generalized-Fibonacci splits, relayed by member `idx`
/// of a ring of `m` members rooted at member `root`: member idx holds the
/// renamed range [ring_rename(idx, root, m), hi) and calls
/// `send(member, child_hi)` once per tree child, which relays its own
/// range up to child_hi in turn. hi is clamped to m (member rings can
/// disagree transiently around a reconfiguration), and a range of fewer
/// than two members -- the singleton heal and repair sends -- relays
/// nothing.
template <typename Send>
void relay_fib(GenFib& fib, std::uint64_t m, std::uint64_t root, std::uint64_t idx,
               std::uint64_t hi, Send&& send) {
  const std::uint64_t renamed = ring_rename(idx, root, m);
  if (hi > m) hi = m;
  while (hi > renamed && hi - renamed >= 2) {
    const std::uint64_t target = renamed + fib.bcast_split(hi - renamed);
    send((target + root) % m, hi);
    hi = target;  // the holder keeps [renamed, target)
  }
}

}  // namespace postal::coord
