#include "coord/consensus.hpp"

#include <algorithm>

#include "coord/validator.hpp"
#include "support/error.hpp"

namespace postal::coord {
namespace {

// Wire encoding: ctl_a = kind(8) << 56 | sender(32) << 24 | view(24).
// ctl_b by kind:
//   VIEW-CHANGE     bit 63 = has_accepted, bits 32..55 = accepted view,
//                   bits 0..31 = accepted value
//   PROPOSE/COMMIT  bits 32..63 = renamed range end hi', bits 0..31 = value
//   ACK             0
// Requires n <= 2^32, views < 2^24, values < 2^32.
enum class Wire : std::uint8_t { kVC = 1, kPropose = 2, kAck = 3, kCommit = 4 };

constexpr std::uint64_t kViewMask = (1ULL << 24) - 1;

std::uint64_t make_ctl_a(Wire kind, ProcId sender, std::uint32_t view) {
  return (static_cast<std::uint64_t>(kind) << 56) |
         (static_cast<std::uint64_t>(sender) << 24) | (view & kViewMask);
}

Packet make_vc(ProcId sender, std::uint32_t view, bool has_accepted,
               std::uint32_t accepted_view, std::uint32_t accepted_value) {
  std::uint64_t ctl_b = static_cast<std::uint64_t>(accepted_value);
  ctl_b |= (static_cast<std::uint64_t>(accepted_view) & kViewMask) << 32;
  if (has_accepted) ctl_b |= 1ULL << 63;
  return Packet{/*msg=*/0, make_ctl_a(Wire::kVC, sender, view), ctl_b};
}

Packet make_tree(Wire kind, ProcId sender, std::uint32_t view,
                 std::uint32_t value, std::uint64_t hi) {
  return Packet{/*msg=*/0, make_ctl_a(kind, sender, view),
                (hi << 32) | static_cast<std::uint64_t>(value)};
}

Packet make_ack(ProcId sender, std::uint32_t view) {
  return Packet{/*msg=*/0, make_ctl_a(Wire::kAck, sender, view), 0};
}

// Timer tokens: plain view number for the view-boundary timer; bit 40 set
// for the within-view repair wave (views are 24-bit, so no collision).
constexpr std::uint64_t kRepairBit = 1ULL << 40;

}  // namespace

ConsensusProtocol::ConsensusProtocol(const PostalParams& params,
                                     const ConsensusOptions& options)
    : n_(params.n()),
      fib_(params.lambda()),
      options_(options),
      state_(params.n()) {
  POSTAL_REQUIRE(n_ <= (1ULL << 32),
                 "ConsensusProtocol: packet encoding requires n <= 2^32");
  POSTAL_REQUIRE(static_cast<std::uint64_t>(options_.value_base) + n_ <=
                     (1ULL << 32),
                 "ConsensusProtocol: value_base + n must fit 32 bits");
  POSTAL_REQUIRE(options_.view_length > Rational(0),
                 "ConsensusProtocol: view_length must be resolved (> 0)");
  POSTAL_REQUIRE(options_.max_views >= 1 && options_.max_views < (1U << 24),
                 "ConsensusProtocol: max_views must be in [1, 2^24)");
  POSTAL_REQUIRE(options_.timeout_slack >= Rational(0),
                 "ConsensusProtocol: timeout_slack must be >= 0");
  quorum_ = static_cast<std::uint32_t>(n_ / 2 + 1);
  // Repair fires once the fault-free tree + ack round trip must have
  // completed: anyone still silent was orphaned by a dead relay (or the
  // link ate a message) and gets the proposal again, point-to-point.
  const Rational fn = n_ >= 2 ? fib_.f(n_) : Rational(0);
  repair_after_ = fn + params.lambda() * Rational(2) +
                  Rational(static_cast<std::int64_t>(n_)) + options_.timeout_slack;
}

void ConsensusProtocol::decide(MachineContext& ctx, std::uint32_t value,
                               std::uint32_t view) {
  ProcState& st = state_[ctx.self()];
  st.decided = true;
  st.dec_value = value;
  st.dec_view = view;
  st.dec_at = ctx.now();
  st.collecting = false;
  ++counters_.decides;
  st.log.push_back(ConsensusEvent{ctx.now(), ctx.self(),
                                  ConsensusEvent::Kind::kDecide, view, value});
}

void ConsensusProtocol::relay_range(MachineContext& ctx, bool commit,
                                    std::uint32_t view, std::uint32_t value,
                                    std::uint64_t hi) {
  // The member ring is every rank 0..n-1, re-rooted per view at its leader
  // (who renames to 0 and so relays the whole ring [0, n)).
  relay_fib(fib_, n_, leader_of(view), ctx.self(), hi,
            [&](std::uint64_t dst, std::uint64_t child_hi) {
              ++(commit ? counters_.commit_relays : counters_.proposal_relays);
              ctx.send(static_cast<ProcId>(dst),
                       make_tree(commit ? Wire::kCommit : Wire::kPropose,
                                 ctx.self(), view, value, child_hi));
            });
}

void ConsensusProtocol::begin_collect(MachineContext& ctx, std::uint32_t view) {
  ProcState& st = state_[ctx.self()];
  st.collecting = true;
  st.collect_view = view;
  st.proposed = false;
  st.vc_count = 1;  // the leader's own contribution
  st.best_has = st.has_accepted;
  st.best_view = st.accepted_view;
  st.best_value = st.accepted_value;
  if (st.vc_count >= quorum_) propose(ctx);  // only n == 1, handled earlier
}

void ConsensusProtocol::propose(MachineContext& ctx) {
  ProcState& st = state_[ctx.self()];
  const std::uint32_t view = st.collect_view;
  st.proposed = true;
  // Paxos value rule: re-propose the highest accepted value any quorum
  // member reported; a fresh view is free to propose the client value.
  st.chosen = st.best_has ? st.best_value : client_value(ctx.self());
  ++counters_.proposals;
  st.log.push_back(ConsensusEvent{ctx.now(), ctx.self(),
                                  ConsensusEvent::Kind::kPropose, view,
                                  st.chosen});
  // Self-accept, then disseminate over the view's broadcast tree.
  st.promised = std::max(st.promised, view);
  st.has_accepted = true;
  st.accepted_view = view;
  st.accepted_value = st.chosen;
  st.acked.assign(n_, 0);
  st.acked[ctx.self()] = 1;
  st.ack_count = 1;
  relay_range(ctx, /*commit=*/false, view, st.chosen, n_);
  ctx.set_timer(repair_after_, kRepairBit | view);
}

void ConsensusProtocol::enter_view(MachineContext& ctx, std::uint32_t view) {
  ProcState& st = state_[ctx.self()];
  if (st.decided || view >= options_.max_views) return;
  st.promised = std::max(st.promised, view);  // the VIEW-CHANGE promise
  st.log.push_back(ConsensusEvent{ctx.now(), ctx.self(),
                                  ConsensusEvent::Kind::kViewChange, view, 0});
  const ProcId leader = leader_of(view);
  if (leader == ctx.self()) {
    begin_collect(ctx, view);
  } else {
    ++counters_.view_changes_sent;
    ctx.send(leader,
             make_vc(ctx.self(), view, st.has_accepted, st.accepted_view,
                     st.accepted_value));
  }
  if (view + 1 < options_.max_views) {
    const Rational next =
        options_.view_length * Rational(static_cast<std::int64_t>(view) + 1);
    ctx.set_timer(next - ctx.now(), view + 1);
  }
}

void ConsensusProtocol::on_start(MachineContext& ctx) {
  ProcState& st = state_[ctx.self()];
  st.started = true;
  if (n_ == 1) {
    // Degenerate quorum of one: propose and decide the client value.
    ++counters_.proposals;
    st.log.push_back(ConsensusEvent{ctx.now(), ctx.self(),
                                    ConsensusEvent::Kind::kPropose, 0,
                                    client_value(0)});
    decide(ctx, client_value(0), 0);
    return;
  }
  enter_view(ctx, 0);
}

void ConsensusProtocol::on_receive(MachineContext& ctx, const Packet& packet) {
  const auto kind = static_cast<Wire>(packet.ctl_a >> 56);
  const auto sender = static_cast<ProcId>((packet.ctl_a >> 24) & 0xffffffffULL);
  const auto view = static_cast<std::uint32_t>(packet.ctl_a & kViewMask);
  ProcState& st = state_[ctx.self()];
  switch (kind) {
    case Wire::kVC: {
      if (st.decided) {
        // Heal a straggler: a direct COMMIT in the view's renaming, with a
        // singleton range so the recipient relays nothing.
        ++counters_.heal_replies;
        const std::uint64_t renamed = ring_rename(sender, leader_of(view), n_);
        ctx.send(sender,
                 make_tree(Wire::kCommit, ctx.self(), view, st.dec_value, renamed + 1));
        return;
      }
      if (leader_of(view) != ctx.self()) return;  // misrouted
      if (!st.collecting || st.collect_view != view) return;  // stale view
      ++st.vc_count;
      const bool has = (packet.ctl_b >> 63) != 0;
      if (has) {
        const auto av = static_cast<std::uint32_t>((packet.ctl_b >> 32) & kViewMask);
        const auto aval = static_cast<std::uint32_t>(packet.ctl_b & 0xffffffffULL);
        if (!st.best_has || av > st.best_view) {
          st.best_has = true;
          st.best_view = av;
          st.best_value = aval;
        }
      }
      if (!st.proposed && st.vc_count >= quorum_) propose(ctx);
      break;
    }
    case Wire::kPropose: {
      const auto value = static_cast<std::uint32_t>(packet.ctl_b & 0xffffffffULL);
      const std::uint64_t hi = packet.ctl_b >> 32;
      relay_range(ctx, /*commit=*/false, view, value, hi);
      if (!st.decided && view >= st.promised) {
        st.promised = view;
        st.has_accepted = true;
        st.accepted_view = view;
        st.accepted_value = value;
        ++counters_.acks_sent;
        ctx.send(leader_of(view), make_ack(ctx.self(), view));
      }
      break;
    }
    case Wire::kAck: {
      if (st.decided || !st.collecting || st.collect_view != view ||
          !st.proposed) {
        return;  // late ack for a view already resolved or abandoned
      }
      if (st.acked[sender] != 0) return;
      st.acked[sender] = 1;
      ++st.ack_count;
      if (st.ack_count >= quorum_) {
        // A quorum accepted: the value is chosen. Decide and commit it
        // down the same tree.
        decide(ctx, st.chosen, view);
        ++counters_.commits;
        relay_range(ctx, /*commit=*/true, view, st.chosen, n_);
      }
      break;
    }
    case Wire::kCommit: {
      const auto value = static_cast<std::uint32_t>(packet.ctl_b & 0xffffffffULL);
      const std::uint64_t hi = packet.ctl_b >> 32;
      if (st.decided) return;  // duplicates carry the same value (agreement)
      decide(ctx, value, view);
      relay_range(ctx, /*commit=*/true, view, value, hi);
      break;
    }
  }
}

void ConsensusProtocol::on_timer(MachineContext& ctx, std::uint64_t token) {
  ProcState& st = state_[ctx.self()];
  if ((token & kRepairBit) != 0) {
    const auto view = static_cast<std::uint32_t>(token & kViewMask);
    if (st.decided || !st.collecting || st.collect_view != view || !st.proposed) {
      return;  // the view resolved (or moved on) before repair was needed
    }
    for (ProcId p = 0; p < n_; ++p) {
      if (p == ctx.self() || st.acked[p] != 0) continue;
      ++counters_.proposal_repairs;
      const std::uint64_t renamed = ring_rename(p, leader_of(view), n_);
      ctx.send(p, make_tree(Wire::kPropose, ctx.self(), view, st.chosen, renamed + 1));
    }
    return;
  }
  enter_view(ctx, static_cast<std::uint32_t>(token));
}

void ConsensusProtocol::harvest(ConsensusHarvest& out) const {
  out.counters.view_changes_sent += counters_.view_changes_sent;
  out.counters.proposals += counters_.proposals;
  out.counters.proposal_relays += counters_.proposal_relays;
  out.counters.proposal_repairs += counters_.proposal_repairs;
  out.counters.acks_sent += counters_.acks_sent;
  out.counters.commits += counters_.commits;
  out.counters.commit_relays += counters_.commit_relays;
  out.counters.heal_replies += counters_.heal_replies;
  out.counters.decides += counters_.decides;
  for (std::uint64_t r = 0; r < n_; ++r) {
    const ProcState& st = state_[r];
    if (!st.started) continue;  // another shard's rank
    out.ranks[r] =
        RankDecision{true, st.decided, st.dec_value, st.dec_view, st.dec_at};
    out.logs[r] = st.log;
  }
}

namespace {

// Timing shared by resolve_consensus_options and the runner's settle
// judgment.
struct ConsensusTiming {
  Rational view_length;
  std::uint32_t min_views = 1;  ///< views needed for the plan to settle
  bool bounded_losses = true;
};

ConsensusTiming derive_consensus_timing(const PostalParams& params,
                                        const FaultPlan* plan,
                                        const ConsensusOptions& options) {
  const std::uint64_t n = params.n();
  const Rational& lambda = params.lambda();
  ConsensusTiming t;
  t.view_length = options.view_length;
  if (t.view_length == Rational(0)) {
    // Tree down (f), acks up (lambda + port), the repair wave and its ack
    // round trip, and the commit tree: a fault-free view completes within
    // its window with room to spare.
    GenFib fib(lambda);
    const Rational fn = n >= 2 ? fib.f(n) : Rational(1);
    t.view_length = fn * Rational(2) + lambda * Rational(4) +
                    Rational(4 * static_cast<std::int64_t>(n)) +
                    options.timeout_slack * Rational(2);
  }
  const PlanDisturbance d = scan_plan(plan);
  t.bounded_losses = d.bounded_losses;
  // Views burned while disturbances are still landing, plus one per eaten
  // message, plus a full leader rotation (within n consecutive clean views
  // some live rank leads: either a quorum of undecided ranks makes
  // progress or a decided leader heals its callers), plus slack.
  const std::int64_t disturbed = (d.last / t.view_length).ceil() + 1;
  const std::int64_t rotation =
      static_cast<std::int64_t>(std::min<std::uint64_t>(n, 64));
  const std::int64_t views = disturbed + d.loss_budget + rotation + 4;
  t.min_views = static_cast<std::uint32_t>(
      std::min<std::int64_t>(views, (1LL << 24) - 1));
  return t;
}

// The latest decision time among the ranks not in `crashed` (sorted).
Rational last_decide(const std::vector<RankDecision>& decisions,
                     const std::vector<ProcId>& crashed) {
  Rational latest{0};
  for (ProcId p = 0; p < decisions.size(); ++p) {
    if (decisions[p].decided && !std::binary_search(crashed.begin(), crashed.end(), p)) {
      latest = rmax(latest, decisions[p].at);
    }
  }
  return latest;
}

}  // namespace

ConsensusOptions resolve_consensus_options(const PostalParams& params,
                                           const FaultPlan* plan,
                                           const ConsensusOptions& options) {
  ConsensusOptions resolved = options;
  const ConsensusTiming timing = derive_consensus_timing(params, plan, resolved);
  resolved.view_length = timing.view_length;
  if (resolved.max_views == 0) resolved.max_views = timing.min_views;
  return resolved;
}

ConsensusReport run_consensus(const PostalParams& params, const FaultPlan* plan,
                              const ConsensusOptions& options) {
  ConsensusReport report;
  report.options = resolve_consensus_options(params, plan, options);
  report.quorum = static_cast<std::uint32_t>(params.n() / 2 + 1);
  report.decisions =
      run_sharded<ConsensusProtocol, ConsensusHarvest>(report, params, plan);

  const ConsensusTiming timing =
      derive_consensus_timing(params, plan, report.options);
  report.settled =
      timing.bounded_losses && report.options.max_views >= timing.min_views;

  report.views_used = 0;
  for (const ConsensusEvent& e : report.events) {
    report.views_used = std::max(report.views_used, e.view);
  }

  report.decision_latency = last_decide(report.decisions, report.crashed);
  // The fault-free reference for recovery_time (bench_coord's trajectory
  // quantity): the same resolved options with no plan attached.
  report.baseline = report.decision_latency;
  if (plan != nullptr && !plan->empty()) {
    const ConsensusHarvest reference =
        run_reference<ConsensusProtocol, ConsensusHarvest>(params, report.options);
    report.baseline = last_decide(reference.ranks, {});
  }
  report.recovery_time = report.decision_latency > report.baseline
                             ? report.decision_latency - report.baseline
                             : Rational(0);

  report.check = check_consensus(report, params, plan);
  return report;
}

}  // namespace postal::coord
