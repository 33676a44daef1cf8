#include "coord/election.hpp"

#include <algorithm>

#include "coord/validator.hpp"
#include "oracle/oracle.hpp"
#include "support/error.hpp"

namespace postal::coord {
namespace {

// Wire encoding: ctl_a = kind(8) << 56 | sender(32) << 24 | term(24),
// ctl_b = the claimed leader. Requires n <= 2^32 and term < 2^24 (terms
// grow only by usurpations, each of which strictly improves the leader's
// priority or answers a real crash, so they stay tiny in practice).
enum class Wire : std::uint8_t {
  kHeartbeat = 1,  ///< leader -> all, every period
  kProbe = 2,      ///< candidate -> every better-priority rank
  kAlive = 3,      ///< probe reply from a non-leader (carries its belief)
  kVictory = 4,    ///< new leader -> all; also the live leader's probe reply
};

constexpr std::uint64_t kTermMask = (1ULL << 24) - 1;

Packet make_packet(Wire kind, ProcId sender, std::uint32_t term, ProcId leader) {
  return Packet{/*msg=*/0,
                (static_cast<std::uint64_t>(kind) << 56) |
                    (static_cast<std::uint64_t>(sender) << 24) |
                    (term & kTermMask),
                static_cast<std::uint64_t>(leader)};
}

// Timer tokens: kind(8) << 56 | generation. Machine timers cannot be
// cancelled, so every (re)arm bumps the rank's generation and stale
// firings are ignored by comparing tokens.
enum class Tok : std::uint8_t { kWatchdog = 1, kProbe = 2, kHeartbeat = 3 };

std::uint64_t make_token(Tok kind, std::uint64_t gen) {
  return (static_cast<std::uint64_t>(kind) << 56) | (gen & ((1ULL << 56) - 1));
}

// Derived timing shared by resolve_election_options and the runner's
// settle judgment, so "the horizon we derive" and "the horizon we accept
// as settled" are the same quantity by construction.
struct ElectionTiming {
  Rational period;
  Rational watchdog;
  Rational probe_wait;
  Rational margin;  ///< settle margin past the last disturbance
  PlanDisturbance plan;
};

ElectionTiming derive_election_timing(const PostalParams& params,
                                      const FaultPlan* plan,
                                      const ElectionOptions& options) {
  const std::uint64_t n = params.n();
  const Rational& lambda = params.lambda();
  ElectionTiming t;
  t.period = options.heartbeat_period;
  if (t.period == Rational(0)) {
    t.period = rmax(lambda * Rational(4),
                    Rational(2 * static_cast<std::int64_t>(n > 0 ? n - 1 : 0)));
  }
  // Watchdog: miss_threshold silent periods, plus the flight and the
  // output-port serialization of a full heartbeat round, plus slack.
  t.watchdog = t.period *
                   Rational(static_cast<std::int64_t>(options.miss_threshold)) +
               lambda +
               Rational(static_cast<std::int64_t>(n)) + options.timeout_slack;
  // Probe window: the candidate serializes up to n - 1 probes, the reply
  // makes the round trip, and the replier may queue behind its own sends.
  t.probe_wait = Rational(static_cast<std::int64_t>(n)) + lambda * Rational(2) +
                 Rational(2) + options.timeout_slack;
  // One full detect-probe-announce round, with port serialization and
  // flight time on both the announcement and the follow-up heartbeat.
  const Rational round = t.watchdog + t.probe_wait +
                         Rational(2 * static_cast<std::int64_t>(n)) +
                         lambda * Rational(4);
  t.plan = scan_plan(plan);
  // Every eaten message can cost at most one spurious round (a missed
  // heartbeat, probe, or victory), and the usurpation chain strictly
  // improves the leader's priority, so it is bounded by n.
  const std::int64_t chain =
      static_cast<std::int64_t>(std::min<std::uint64_t>(n, 64));
  t.margin = t.watchdog + round * Rational(t.plan.loss_budget + chain + 2);
  return t;
}

}  // namespace

ElectionProtocol::ElectionProtocol(const PostalParams& params,
                                   const ElectionOptions& options)
    : n_(params.n()),
      lambda_(params.lambda()),
      options_(options),
      state_(params.n()) {
  POSTAL_REQUIRE(n_ <= (1ULL << 32),
                 "ElectionProtocol: packet encoding requires n <= 2^32");
  POSTAL_REQUIRE(options_.initial_leader < n_,
                 "ElectionProtocol: initial_leader out of range");
  POSTAL_REQUIRE(options_.miss_threshold >= 1,
                 "ElectionProtocol: miss_threshold must be >= 1");
  POSTAL_REQUIRE(options_.timeout_slack >= Rational(0),
                 "ElectionProtocol: timeout_slack must be >= 0");
  const ElectionTiming timing = derive_election_timing(params, nullptr, options_);
  period_ = timing.period;
  POSTAL_REQUIRE(period_ > Rational(0),
                 "ElectionProtocol: heartbeat_period must be > 0");
  watchdog_ = timing.watchdog;
  probe_wait_ = timing.probe_wait;
  if (options_.horizon == Rational(0)) {
    // Standalone default (the runner derives a plan-aware horizon): room
    // for one detection + election round past the watchdog.
    options_.horizon =
        watchdog_ + probe_wait_ + period_ * Rational(4) + lambda_ * Rational(4);
  }
  if (options_.policy == ElectionPolicy::kOracleDepth) {
    const oracle::ScheduleOracle oracle(n_, lambda_);
    depth_.resize(n_);
    for (std::uint64_t r = 0; r < n_; ++r) depth_[r] = oracle.info(r).depth;
  }
}

bool ElectionProtocol::better(ProcId a, ProcId b) const {
  if (options_.policy == ElectionPolicy::kHighestRank) return a > b;
  // kOracleDepth: closer to the BCAST root wins; ties to the smaller rank.
  if (depth_[a] != depth_[b]) return depth_[a] < depth_[b];
  return a < b;
}

void ElectionProtocol::arm_at(MachineContext& ctx, const Rational& at,
                              std::uint64_t token) {
  if (at >= options_.horizon) return;  // quiescence: no timers past the horizon
  ctx.set_timer(at - ctx.now(), token);
}

void ElectionProtocol::arm_watchdog(MachineContext& ctx) {
  ProcState& st = state_[ctx.self()];
  ++st.watchdog_gen;
  arm_at(ctx, ctx.now() + watchdog_, make_token(Tok::kWatchdog, st.watchdog_gen));
}

void ElectionProtocol::log_event(MachineContext& ctx, ElectionEvent::Kind kind) {
  ProcState& st = state_[ctx.self()];
  st.log.push_back(
      ElectionEvent{ctx.now(), ctx.self(), kind, st.term, st.leader});
}

void ElectionProtocol::heartbeat_round(MachineContext& ctx) {
  ProcState& st = state_[ctx.self()];
  for (ProcId p = 0; p < n_; ++p) {
    if (p == ctx.self()) continue;
    ++counters_.heartbeats_sent;
    ctx.send(p, make_packet(Wire::kHeartbeat, ctx.self(), st.term, st.leader));
  }
  arm_at(ctx, ctx.now() + period_, make_token(Tok::kHeartbeat, st.hb_gen));
}

void ElectionProtocol::begin_candidacy(MachineContext& ctx, bool takeover) {
  ProcState& st = state_[ctx.self()];
  st.candidate = true;
  if (takeover) ++counters_.takeovers;
  bool probed = false;
  for (ProcId p = 0; p < n_; ++p) {
    if (p == ctx.self() || !better(p, ctx.self())) continue;
    ++counters_.probes_sent;
    ctx.send(p, make_packet(Wire::kProbe, ctx.self(), st.term, st.leader));
    probed = true;
  }
  if (!probed) {
    declare_victory(ctx);
    return;
  }
  ++st.probe_gen;
  arm_at(ctx, ctx.now() + probe_wait_, make_token(Tok::kProbe, st.probe_gen));
}

void ElectionProtocol::declare_victory(MachineContext& ctx) {
  ProcState& st = state_[ctx.self()];
  POSTAL_CHECK(st.term < kTermMask);
  st.term += 1;
  st.leader = ctx.self();
  st.candidate = false;
  ++st.watchdog_gen;  // cancel: leaders do not watch themselves
  ++st.probe_gen;
  ++st.hb_gen;
  log_event(ctx, ElectionEvent::Kind::kVictory);
  for (ProcId p = 0; p < n_; ++p) {
    if (p == ctx.self()) continue;
    ++counters_.victories_sent;
    ctx.send(p, make_packet(Wire::kVictory, ctx.self(), st.term, st.leader));
  }
  // The victory round doubles as the first heartbeat round.
  arm_at(ctx, ctx.now() + period_, make_token(Tok::kHeartbeat, st.hb_gen));
}

void ElectionProtocol::consider(MachineContext& ctx, ProcId claimed,
                                std::uint32_t term) {
  ProcState& st = state_[ctx.self()];
  if (term == st.term && claimed == st.leader) {
    // A sign of life from the current leader: the suspicion (if any) was
    // spurious; fall back to following.
    if (st.leader != ctx.self()) {
      st.candidate = false;
      ++st.probe_gen;
      arm_watchdog(ctx);
    }
    return;
  }
  const bool newer =
      term > st.term || (term == st.term && better(claimed, st.leader));
  if (!newer) return;  // stale claim; the sender will adopt us soon enough
  const bool was_leader = st.leader == ctx.self();
  st.leader = claimed;
  st.term = term;
  st.candidate = false;
  ++st.probe_gen;
  ++counters_.adoptions;
  log_event(ctx, ElectionEvent::Kind::kAdopt);
  if (was_leader && claimed != ctx.self()) {
    ++st.hb_gen;  // stop heartbeating
    ++counters_.step_downs;
    log_event(ctx, ElectionEvent::Kind::kStepDown);
  }
  arm_watchdog(ctx);
  if (better(ctx.self(), claimed)) {
    // Bully usurpation: a worse-priority rank won (our probes or its
    // victories were lost). Re-elect on top under a higher term.
    begin_candidacy(ctx, /*takeover=*/true);
  }
}

void ElectionProtocol::on_start(MachineContext& ctx) {
  ProcState& st = state_[ctx.self()];
  st.started = true;
  st.leader = options_.initial_leader;
  st.term = 0;
  if (n_ == 1) return;
  if (ctx.self() == st.leader) {
    ++st.hb_gen;
    heartbeat_round(ctx);
  } else {
    arm_watchdog(ctx);
  }
}

void ElectionProtocol::on_receive(MachineContext& ctx, const Packet& packet) {
  const auto kind = static_cast<Wire>(packet.ctl_a >> 56);
  const auto sender = static_cast<ProcId>((packet.ctl_a >> 24) & 0xffffffffULL);
  const auto term = static_cast<std::uint32_t>(packet.ctl_a & kTermMask);
  const auto claimed = static_cast<ProcId>(packet.ctl_b);
  ProcState& st = state_[ctx.self()];
  switch (kind) {
    case Wire::kHeartbeat:
    case Wire::kVictory:
      consider(ctx, claimed, term);
      break;
    case Wire::kProbe:
      if (st.leader == ctx.self()) {
        ++counters_.victories_sent;
        ctx.send(sender, make_packet(Wire::kVictory, ctx.self(), st.term, st.leader));
      } else {
        ++counters_.alives_sent;
        ctx.send(sender, make_packet(Wire::kAlive, ctx.self(), st.term, st.leader));
      }
      break;
    case Wire::kAlive:
      // A better-priority rank lives; let it (or the leader it believes
      // in) claim victory, and re-suspect if nothing arrives in time.
      if (term > st.term) {
        consider(ctx, claimed, term);
      } else if (st.candidate) {
        st.candidate = false;
        ++st.probe_gen;
        arm_watchdog(ctx);
      }
      break;
  }
}

void ElectionProtocol::on_timer(MachineContext& ctx, std::uint64_t token) {
  const auto kind = static_cast<Tok>(token >> 56);
  const std::uint64_t gen = token & ((1ULL << 56) - 1);
  ProcState& st = state_[ctx.self()];
  switch (kind) {
    case Tok::kWatchdog:
      if (gen != st.watchdog_gen || st.leader == ctx.self()) return;
      ++counters_.suspicions;
      log_event(ctx, ElectionEvent::Kind::kSuspect);
      begin_candidacy(ctx, /*takeover=*/false);
      break;
    case Tok::kProbe:
      // The probe window passed with neither an ALIVE nor a VICTORY:
      // every better-priority rank is dead. Take over.
      if (gen != st.probe_gen || !st.candidate) return;
      declare_victory(ctx);
      break;
    case Tok::kHeartbeat:
      if (gen != st.hb_gen || st.leader != ctx.self()) return;
      heartbeat_round(ctx);
      break;
  }
}

void ElectionProtocol::harvest(ElectionHarvest& out) const {
  out.counters.heartbeats_sent += counters_.heartbeats_sent;
  out.counters.probes_sent += counters_.probes_sent;
  out.counters.alives_sent += counters_.alives_sent;
  out.counters.victories_sent += counters_.victories_sent;
  out.counters.suspicions += counters_.suspicions;
  out.counters.takeovers += counters_.takeovers;
  out.counters.adoptions += counters_.adoptions;
  out.counters.step_downs += counters_.step_downs;
  for (std::uint64_t r = 0; r < n_; ++r) {
    const ProcState& st = state_[r];
    if (!st.started) continue;  // another shard's rank
    out.ranks[r] = RankBelief{true, st.leader, st.term};
    out.logs[r] = st.log;
  }
}

ElectionOptions resolve_election_options(const PostalParams& params,
                                         const FaultPlan* plan,
                                         const ElectionOptions& options) {
  ElectionOptions resolved = options;
  const ElectionTiming timing = derive_election_timing(params, plan, resolved);
  resolved.heartbeat_period = timing.period;
  if (resolved.horizon == Rational(0)) {
    resolved.horizon = timing.plan.last + timing.margin + timing.period * Rational(2);
  }
  return resolved;
}

ElectionReport run_election(const PostalParams& params, const FaultPlan* plan,
                            const ElectionOptions& options) {
  ElectionReport report;
  report.options = resolve_election_options(params, plan, options);
  report.beliefs = run_sharded<ElectionProtocol, ElectionHarvest>(report, params, plan);
  const auto alive = [&report](ProcId p) {
    return !std::binary_search(report.crashed.begin(), report.crashed.end(), p);
  };

  const ElectionTiming timing =
      derive_election_timing(params, plan, report.options);
  report.watchdog = timing.watchdog;
  report.settle_time = timing.plan.last + timing.margin;
  report.settled =
      timing.plan.bounded_losses && report.settle_time <= report.options.horizon;

  for (ProcId p = 0; p < params.n(); ++p) {
    if (alive(p) && report.beliefs[p].started) {
      report.leader = report.beliefs[p].leader;
      break;
    }
  }

  // Latency: when did the final leadership stabilize, and how long after
  // the initial leader's crash (the bench_coord trajectory quantities).
  report.first_suspect = Rational(0);
  report.elected_at = Rational(0);
  for (const ElectionEvent& e : report.events) {
    if (e.kind == ElectionEvent::Kind::kSuspect &&
        report.first_suspect == Rational(0)) {
      report.first_suspect = e.time;
    }
    const bool settles_leader = (e.kind == ElectionEvent::Kind::kAdopt ||
                                 e.kind == ElectionEvent::Kind::kVictory) &&
                                e.leader == report.leader;
    if (settles_leader && e.rank < params.n() && alive(e.rank)) {
      report.elected_at = rmax(report.elected_at, e.time);
    }
  }
  report.election_latency = report.elected_at;
  if (plan != nullptr) {
    for (const CrashFault& c : plan->crashes) {
      if (c.proc == report.options.initial_leader &&
          report.elected_at > c.time) {
        report.election_latency = report.elected_at - c.time;
        break;
      }
    }
  }

  report.check = check_election(report, params, plan);
  return report;
}

}  // namespace postal::coord
