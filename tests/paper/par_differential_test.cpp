// The shard-count-invariance gate (docs/SIMULATION.md): ParMachine must be
// byte-identical to the sequential Machine -- same schedule events, same
// trace deliveries in the same order, same stats, same fault timeline,
// same validator verdicts -- at every thread count, over the full protocol
// family and fault-injection corpus the tick differential uses. threads=1
// is not a special case here: the windowed engine (with its barrier
// merge-replay) runs at every shard count including one, so a threads=1
// pass already exercises the window/merge machinery, and the higher
// thread counts exercise true cross-shard mailboxes.
//
// scripts/check.sh --sanitize re-runs this binary under TSan (the shard
// loops run on real pool lanes at threads > 1) and under ASan+UBSan.
#include <cstdint>
#include <functional>
#include <memory>
#include <string>
#include <thread>
#include <tuple>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "faults/fault_plan.hpp"
#include "sim/machine.hpp"
#include "sim/par_machine.hpp"
#include "sim/protocols/bcast_protocol.hpp"
#include "sim/protocols/dtree_protocol.hpp"
#include "sim/protocols/multi_protocols.hpp"
#include "sim/tick_schedule.hpp"
#include "sim/validator.hpp"
#include "support/prng.hpp"
#include "test_util.hpp"

namespace postal {
namespace {

std::vector<unsigned> thread_counts() {
  std::vector<unsigned> counts = {1, 2, 4};
  const unsigned hw = std::thread::hardware_concurrency();
  if (hw > 1 && hw != 2 && hw != 4) counts.push_back(hw);
  return counts;
}

/// Everything a MachineResult exposes must match, including the engine
/// flag: a sharded tick run reports tick_domain exactly like a sequential
/// tick run would.
void expect_identical_runs(const MachineResult& par, const MachineResult& ref,
                           const std::string& tag) {
  EXPECT_EQ(par.schedule.events(), ref.schedule.events()) << tag;
  EXPECT_EQ(par.trace.deliveries(), ref.trace.deliveries()) << tag;
  EXPECT_EQ(par.stats.events_processed, ref.stats.events_processed) << tag;
  EXPECT_EQ(par.stats.sends_enqueued, ref.stats.sends_enqueued) << tag;
  EXPECT_EQ(par.stats.sends_deferred, ref.stats.sends_deferred) << tag;
  EXPECT_EQ(par.stats.timers_set, ref.stats.timers_set) << tag;
  EXPECT_EQ(par.stats.timers_fired, ref.stats.timers_fired) << tag;
  EXPECT_EQ(par.stats.receives_queued, ref.stats.receives_queued) << tag;
  EXPECT_EQ(par.stats.max_fifo_depth, ref.stats.max_fifo_depth) << tag;
  EXPECT_EQ(par.stats.port_busy, ref.stats.port_busy) << tag;
  EXPECT_EQ(par.stats.tick_domain, ref.stats.tick_domain) << tag;
  EXPECT_EQ(par.faults.crashes_applied, ref.faults.crashes_applied) << tag;
  EXPECT_EQ(par.faults.sends_suppressed, ref.faults.sends_suppressed) << tag;
  EXPECT_EQ(par.faults.drops_crash, ref.faults.drops_crash) << tag;
  EXPECT_EQ(par.faults.drops_loss, ref.faults.drops_loss) << tag;
  EXPECT_EQ(par.faults.spikes_applied, ref.faults.spikes_applied) << tag;
  EXPECT_EQ(par.faults.events, ref.faults.events) << tag;
}

/// Validator verdicts over the two schedules+params must agree too (they
/// must, given identical schedules -- this guards the plumbing end).
void expect_identical_verdicts(const MachineResult& par, const MachineResult& ref,
                               const PostalParams& params, const std::string& tag) {
  const SimReport a = validate_schedule(par.schedule, params);
  const SimReport b = validate_schedule(ref.schedule, params);
  EXPECT_EQ(a.ok, b.ok) << tag;
  EXPECT_EQ(a.violations, b.violations) << tag;
  EXPECT_EQ(a.makespan, b.makespan) << tag;
  EXPECT_EQ(a.order_preserving, b.order_preserving) << tag;
}

class ParDifferential : public ::testing::TestWithParam<unsigned> {};

TEST_P(ParDifferential, BcastRunsAreByteIdentical) {
  const unsigned threads = GetParam();
  Xoshiro256 rng(0xA55Cu ^ threads);
  for (int i = 0; i < 20; ++i) {
    const std::uint64_t n = rng.uniform(1, 160);
    const std::uint64_t q = rng.uniform(1, 4);
    const Rational lambda(static_cast<std::int64_t>(rng.uniform(q, 8 * q)),
                          static_cast<std::int64_t>(q));
    const PostalParams params(n, lambda);
    const std::string tag = "threads=" + std::to_string(threads) +
                            " n=" + std::to_string(n) + " lambda=" + lambda.str();

    Machine machine(params, 1);
    BcastProtocol protocol(params);
    const MachineResult ref = machine.run(protocol);

    ParMachine par(params, 1);
    par.set_threads(threads);
    auto factory = make_protocol_factory<BcastProtocol>(params);
    const MachineResult got = par.run(factory);

    expect_identical_runs(got, ref, tag);
    expect_identical_verdicts(got, ref, params, tag);
    EXPECT_TRUE(par.last_run_info().parallel_engine) << tag;
    EXPECT_EQ(par.last_run_info().shards,
              std::min<std::uint64_t>(threads, n))
        << tag;
  }
}

TEST_P(ParDifferential, MultiMessageProtocolFamiliesAreByteIdentical) {
  const unsigned threads = GetParam();
  const PostalParams params(24, Rational(5, 2));
  const auto check = [&](auto ref_protocol, auto factory, std::uint32_t m,
                         const std::string& name) {
    const std::string tag = name + " threads=" + std::to_string(threads);
    Machine machine(params, m);
    const MachineResult ref = machine.run(ref_protocol);
    ParMachine par(params, m);
    par.set_threads(threads);
    const MachineResult got = par.run(factory);
    expect_identical_runs(got, ref, tag);
    expect_identical_verdicts(got, ref, params, tag);
  };
  check(BcastProtocol(params), make_protocol_factory<BcastProtocol>(params), 1,
        "bcast");
  check(RepeatProtocol(params, 6),
        make_protocol_factory<RepeatProtocol>(params, std::uint32_t{6}), 6,
        "repeat");
  check(PackProtocol(params, 6),
        make_protocol_factory<PackProtocol>(params, std::uint32_t{6}), 6, "pack");
  // PIPELINE-1 requires m <= lambda.
  check(Pipeline1Protocol(params, 2),
        make_protocol_factory<Pipeline1Protocol>(params, std::uint32_t{2}), 2,
        "pipeline1");
  check(Pipeline2Protocol(params, 6),
        make_protocol_factory<Pipeline2Protocol>(params, std::uint32_t{6}), 6,
        "pipeline2");
  check(DTreeProtocol(params, 2, 3),
        make_protocol_factory<DTreeProtocol>(params, std::uint32_t{2},
                                             std::uint64_t{3}),
        2, "dtree");
}

TEST_P(ParDifferential, FaultInjectedRunsAreByteIdentical) {
  const unsigned threads = GetParam();
  for (std::uint64_t seed = 1; seed <= 16; ++seed) {
    const std::uint64_t n = 8 + (seed % 3) * 12;
    const Rational lambda = seed % 2 == 0 ? Rational(2) : Rational(7, 2);
    const PostalParams params(n, lambda);
    RandomFaultOptions fopts;
    fopts.crashes = seed % 4;
    fopts.lossy_links = 4;
    fopts.loss_p = Rational(1, 3);
    fopts.spikes = seed % 3;
    const FaultPlan plan = random_fault_plan(params, seed, fopts);
    const std::string tag =
        "threads=" + std::to_string(threads) + " seed=" + std::to_string(seed);

    Machine machine(params, 1);
    machine.attach_faults(plan);
    BcastProtocol protocol(params);
    const MachineResult ref = machine.run(protocol);

    ParMachine par(params, 1);
    par.set_threads(threads);
    par.attach_faults(plan);
    auto factory = make_protocol_factory<BcastProtocol>(params);
    const MachineResult got = par.run(factory);

    expect_identical_runs(got, ref, tag);
    // The corpus stays on the lambda grid: the sharded engine must have
    // actually run, not fallen back.
    EXPECT_TRUE(par.last_run_info().parallel_engine) << tag;
  }
}

TEST_P(ParDifferential, RationalTimePathFallsBackToTheReferenceEngine) {
  const unsigned threads = GetParam();
  const PostalParams params(40, Rational(3, 2));
  Machine machine(params, 1);
  machine.set_time_path(TimePath::kRational);
  BcastProtocol protocol(params);
  const MachineResult ref = machine.run(protocol);

  ParMachine par(params, 1);
  par.set_threads(threads);
  par.set_time_path(TimePath::kRational);
  auto factory = make_protocol_factory<BcastProtocol>(params);
  const MachineResult got = par.run(factory);

  expect_identical_runs(got, ref, "rational fallback");
  EXPECT_FALSE(par.last_run_info().parallel_engine);
  EXPECT_EQ(par.last_run_info().fallback_reason, "rational time path forced");
}

/// Arms one off-grid timer mid-run (delay 1/3 with q = 2). The sequential
/// Machine transplants to the Rational engine; ParMachine must rerun the
/// whole protocol sequentially and still match byte for byte.
class OffGridTimerProtocol final : public Protocol {
 public:
  explicit OffGridTimerProtocol(std::uint64_t n) : n_(n) {}

  void on_start(MachineContext& ctx) override {
    if (ctx.self() != 0) return;
    for (ProcId p = 1; p < n_; ++p) ctx.send(p, Packet{0, 0, 0});
    ctx.set_timer(Rational(1, 3), /*token=*/7);  // off the 1/2 grid
  }

  void on_receive(MachineContext& ctx, const Packet& packet) override {
    static_cast<void>(packet);
    if (ctx.self() == 1 && !echoed_) {
      echoed_ = true;
      ctx.send(0, Packet{0, 1, 0});
    }
  }

  void on_timer(MachineContext& ctx, std::uint64_t token) override {
    EXPECT_EQ(token, 7u);
    ctx.send(static_cast<ProcId>(n_ - 1), Packet{0, 2, 0});
  }

 private:
  std::uint64_t n_;
  bool echoed_ = false;
};

TEST_P(ParDifferential, OffGridTimerFallsBackToSequentialRerun) {
  const unsigned threads = GetParam();
  const PostalParams params(6, Rational(3, 2));
  Machine machine(params, 1);
  OffGridTimerProtocol protocol(6);
  const MachineResult ref = machine.run(protocol);

  ParMachine par(params, 1);
  par.set_threads(threads);
  auto factory = make_protocol_factory<OffGridTimerProtocol>(std::uint64_t{6});
  const MachineResult got = par.run(factory);

  expect_identical_runs(got, ref, "off-grid fallback");
  EXPECT_FALSE(par.last_run_info().parallel_engine);
  EXPECT_EQ(par.last_run_info().fallback_reason, "off-grid timer armed mid-run");
}

/// A timer-heavy protocol whose timers stay on-grid: every rank forwards a
/// token around a ring after a per-hop timer delay. Exercises in-window
/// live pushes (timers and input-port requeues) across many barriers.
class TimerRelayProtocol final : public Protocol {
 public:
  TimerRelayProtocol(std::uint64_t n, std::int64_t delay_num,
                     std::int64_t delay_den)
      : n_(n), delay_(delay_num, delay_den) {}

  void on_start(MachineContext& ctx) override {
    if (ctx.self() == 0 && n_ > 1) ctx.set_timer(delay_, 0);
  }

  void on_receive(MachineContext& ctx, const Packet& packet) override {
    if (packet.ctl_a < 3 * n_) ctx.set_timer(delay_, packet.ctl_a);
  }

  void on_timer(MachineContext& ctx, std::uint64_t token) override {
    const ProcId next = static_cast<ProcId>((ctx.self() + 1) % n_);
    if (next != ctx.self()) ctx.send(next, Packet{0, token + 1, 0});
  }

 private:
  std::uint64_t n_;
  Rational delay_;
};

TEST_P(ParDifferential, OnGridTimerRelayIsByteIdentical) {
  const unsigned threads = GetParam();
  for (const auto& [num, den] : {std::pair<std::int64_t, std::int64_t>{1, 2},
                                 {3, 1},
                                 {0, 1}}) {
    const PostalParams params(12, Rational(5, 2));
    const std::string tag = "threads=" + std::to_string(threads) + " delay=" +
                            Rational(num, den).str();
    Machine machine(params, 1);
    TimerRelayProtocol protocol(12, num, den);
    const MachineResult ref = machine.run(protocol);

    ParMachine par(params, 1);
    par.set_threads(threads);
    auto factory = make_protocol_factory<TimerRelayProtocol>(
        std::uint64_t{12}, num, den);
    const MachineResult got = par.run(factory);

    expect_identical_runs(got, ref, tag);
    EXPECT_TRUE(par.last_run_info().parallel_engine) << tag;
    EXPECT_GT(got.stats.timers_fired, 0u) << tag;
  }
}

/// TraceMode::kCounters must change exactly one thing: the delivery list
/// is empty. Schedule, stats, fault timeline, first arrivals, delivery
/// count, and makespan all stay byte-equal to the kFull reference --
/// fault-free and fault-injected, at every thread count.
TEST_P(ParDifferential, CountersModeMatchesFullModeSummaries) {
  const unsigned threads = GetParam();
  for (const std::uint64_t seed : {std::uint64_t{0}, std::uint64_t{9}}) {
    const std::uint64_t n = 48 + seed;
    const PostalParams params(n, Rational(5, 2));
    FaultPlan plan;
    if (seed != 0) {
      RandomFaultOptions fopts;
      fopts.crashes = 2;
      fopts.lossy_links = 4;
      fopts.loss_p = Rational(1, 3);
      fopts.spikes = 1;
      plan = random_fault_plan(params, seed, fopts);
    }
    const std::string tag =
        "threads=" + std::to_string(threads) + " seed=" + std::to_string(seed);

    ParMachine full(params, 1);
    full.set_threads(threads);
    if (!plan.empty()) full.attach_faults(plan);
    auto full_factory = make_protocol_factory<BcastProtocol>(params);
    const MachineResult ref = full.run(full_factory);

    ParMachine ctr(params, 1);
    ctr.set_threads(threads);
    ctr.set_trace_mode(TraceMode::kCounters);
    if (!plan.empty()) ctr.attach_faults(plan);
    auto ctr_factory = make_protocol_factory<BcastProtocol>(params);
    const MachineResult got = ctr.run(ctr_factory);

    EXPECT_EQ(got.trace.mode(), TraceMode::kCounters) << tag;
    EXPECT_TRUE(got.trace.deliveries().empty()) << tag;
    EXPECT_EQ(got.trace.delivery_count(), ref.trace.deliveries().size()) << tag;
    EXPECT_EQ(got.trace.makespan(), ref.trace.makespan()) << tag;
    for (ProcId p = 0; p < n; ++p) {
      EXPECT_EQ(got.trace.arrival(p, 0), ref.trace.arrival(p, 0)) << tag;
    }
    EXPECT_EQ(got.schedule.events(), ref.schedule.events()) << tag;
    EXPECT_EQ(got.stats.events_processed, ref.stats.events_processed) << tag;
    EXPECT_EQ(got.stats.sends_enqueued, ref.stats.sends_enqueued) << tag;
    EXPECT_EQ(got.stats.port_busy, ref.stats.port_busy) << tag;
    EXPECT_EQ(got.faults.events, ref.faults.events) << tag;
    EXPECT_EQ(ctr.last_run_info().trace_mode, TraceMode::kCounters) << tag;
    // The sequential Machine agrees on the elided summary too.
    Machine seq(params, 1);
    seq.set_trace_mode(TraceMode::kCounters);
    if (!plan.empty()) seq.attach_faults(plan);
    BcastProtocol protocol(params);
    const MachineResult seq_got = seq.run(protocol);
    EXPECT_TRUE(seq_got.trace.deliveries().empty()) << tag;
    EXPECT_EQ(seq_got.trace.delivery_count(), got.trace.delivery_count()) << tag;
    EXPECT_EQ(seq_got.trace.makespan(), got.trace.makespan()) << tag;
  }
}

/// The arena contract: run() twice on ONE ParMachine (buffers at their
/// high-water mark the second time) and every result must be byte-equal to
/// a fresh engine's -- randomized workloads including faults, plus the
/// zero-growth claim on the warm rerun of the identical workload.
TEST_P(ParDifferential, BufferReuseAcrossRunsIsByteIdentical) {
  const unsigned threads = GetParam();
  Xoshiro256 rng(0xBEEFu + threads);
  for (int i = 0; i < 6; ++i) {
    const std::uint64_t n = rng.uniform(2, 96);
    const Rational lambda(static_cast<std::int64_t>(rng.uniform(2, 8)),
                          static_cast<std::int64_t>(rng.uniform(1, 2)));
    const PostalParams params(n, lambda);
    FaultPlan plan;
    if (i % 2 == 1) {
      RandomFaultOptions fopts;
      fopts.crashes = static_cast<std::uint64_t>(1 + (i % 3));
      fopts.lossy_links = 3;
      fopts.loss_p = Rational(1, 4);
      plan = random_fault_plan(params, 0x5EEDu + static_cast<unsigned>(i), fopts);
    }
    const std::string tag = "threads=" + std::to_string(threads) +
                            " i=" + std::to_string(i) +
                            " n=" + std::to_string(n);

    const auto fresh_run = [&] {
      ParMachine fresh(params, 1);
      fresh.set_threads(threads);
      if (!plan.empty()) fresh.attach_faults(plan);
      auto factory = make_protocol_factory<BcastProtocol>(params);
      return fresh.run(factory);
    };
    const MachineResult ref = fresh_run();

    ParMachine reused(params, 1);
    reused.set_threads(threads);
    if (!plan.empty()) reused.attach_faults(plan);
    auto factory = make_protocol_factory<BcastProtocol>(params);
    const MachineResult first = reused.run(factory);
    expect_identical_runs(first, ref, tag + " cold");
    const MachineResult second = reused.run(factory);
    expect_identical_runs(second, ref, tag + " warm");
    if (reused.last_run_info().parallel_engine) {
      // Same workload, warmed buffers: the steady state allocates nothing.
      EXPECT_EQ(reused.last_run_info().arena_growths, 0u) << tag;
    }
    const MachineResult third = fresh_run();
    expect_identical_runs(third, ref, tag + " fresh-after");
  }
}

INSTANTIATE_TEST_SUITE_P(ThreadCounts, ParDifferential,
                         ::testing::ValuesIn(thread_counts()));

// --- Schedule assembly (sim/tick_schedule.hpp) ---------------------------
// Both tick engines emit their schedule already sorted, by integer
// (tick, src) keys, instead of stable-sorting Rational events at the end.
// The reference is the pre-assembly behavior: the sequential Machine on
// the Rational path, which still appends and stable-sorts. Every engine,
// time path and lane count must reproduce it exactly, and the result must
// be a fixed point of Schedule::sort() from the worst (reversed) order.

/// Every rank sends to its successor at start and again after a timer of
/// kTickSpanCap time units (on the tick grid, so the run stays ticked).
class LongTimerProtocol final : public Protocol {
 public:
  explicit LongTimerProtocol(std::uint64_t n) : n_(n) {}

  void on_start(MachineContext& ctx) override {
    ctx.send(next(ctx), Packet{0, 0, 0});
    ctx.set_timer(Rational(static_cast<std::int64_t>(kTickSpanCap)), 0);
  }
  void on_receive(MachineContext& ctx, const Packet& packet) override {
    static_cast<void>(ctx);
    static_cast<void>(packet);
  }
  void on_timer(MachineContext& ctx, std::uint64_t token) override {
    static_cast<void>(token);
    ctx.send(next(ctx), Packet{0, 1, 0});
  }

 private:
  [[nodiscard]] ProcId next(const MachineContext& ctx) const {
    return static_cast<ProcId>((ctx.self() + 1) % n_);
  }
  std::uint64_t n_;
};

struct AssemblyCase {
  std::string name;
  PostalParams params;
  FaultPlan plan;
  std::uint32_t messages = 1;
  /// Builds a fresh protocol instance (per engine and per shard).
  std::function<std::unique_ptr<Protocol>()> make;
};

class FunctionFactory final : public ShardProtocolFactory {
 public:
  explicit FunctionFactory(std::function<std::unique_ptr<Protocol>()> make)
      : make_(std::move(make)) {}
  std::unique_ptr<Protocol> make(std::uint32_t, std::uint32_t) override {
    return make_();
  }

 private:
  std::function<std::unique_ptr<Protocol>()> make_;
};

std::vector<AssemblyCase> assembly_corpus() {
  std::vector<AssemblyCase> corpus;
  const auto bcast = [](const PostalParams& params) {
    return [params] { return std::make_unique<BcastProtocol>(params); };
  };
  for (const auto& [n, lambda] : {std::pair<std::uint64_t, Rational>{2, Rational(1)},
                                  {7, Rational(5, 2)},
                                  {100, Rational(3)},
                                  {257, Rational(7, 3)}}) {
    const PostalParams params(n, lambda);
    corpus.push_back({"bcast n=" + std::to_string(n), params, {}, 1, bcast(params)});
  }
  // Crashes, losses and spikes.
  for (std::uint64_t seed = 1; seed <= 4; ++seed) {
    const PostalParams params(40 + seed * 7,
                              seed % 2 == 0 ? Rational(2) : Rational(5, 2));
    RandomFaultOptions fopts;
    fopts.crashes = seed;
    fopts.lossy_links = 6;
    fopts.loss_p = Rational(1, 3);
    fopts.spikes = 2;
    corpus.push_back({"faulted seed=" + std::to_string(seed), params,
                      random_fault_plan(params, seed, fopts), 1, bcast(params)});
  }
  // Spans past the counting cap. A spike of kTickSpanCap units delays the
  // origin's first sends, so the run (and at one lane, its only slice)
  // spans twice the cap; a timer of the same length makes every rank send
  // once early and once late, so every slice at every lane count is wide.
  corpus.push_back({"long timer", PostalParams(20, Rational(3, 2)), {}, 1, [] {
                      return std::make_unique<LongTimerProtocol>(20);
                    }});
  {
    const PostalParams params(24, Rational(5, 2));
    FaultPlan plan;
    const Rational cap_units(static_cast<std::int64_t>(kTickSpanCap));
    plan.spikes.push_back(LatencySpike{Rational(0), Rational(2), cap_units});
    corpus.push_back({"wide spike", params, plan, 1, bcast(params)});
  }
  // Port backlog: multi-message protocols queue sends behind a busy port.
  {
    const PostalParams params(30, Rational(5, 2));
    corpus.push_back({"repeat m=6", params, {}, 6, [params] {
                        return std::make_unique<RepeatProtocol>(params, 6);
                      }});
    corpus.push_back({"pack m=6", params, {}, 6, [params] {
                        return std::make_unique<PackProtocol>(params, 6);
                      }});
    corpus.push_back({"pipeline2 m=6", params, {}, 6, [params] {
                        return std::make_unique<Pipeline2Protocol>(params, 6);
                      }});
  }
  // Off the tick grid mid-run: Machine transplants, ParMachine reruns.
  corpus.push_back({"off-grid timer", PostalParams(6, Rational(3, 2)), {}, 1, [] {
                      return std::make_unique<OffGridTimerProtocol>(6);
                    }});
  return corpus;
}

/// Schedule::sort() applied to the events in reverse order.
std::vector<SendEvent> resorted(const std::vector<SendEvent>& events) {
  Schedule schedule;
  for (auto it = events.rbegin(); it != events.rend(); ++it) schedule.add(*it);
  schedule.sort();
  return schedule.events();
}

class AssemblyDifferential
    : public ::testing::TestWithParam<std::tuple<unsigned, TimePath>> {};

TEST_P(AssemblyDifferential, EnginesEmitTheStableSortReference) {
  const auto [threads, path] = GetParam();
  bool saw_backlog = false;
  for (const AssemblyCase& c : assembly_corpus()) {
    const std::string tag = c.name + " threads=" + std::to_string(threads) +
                            (path == TimePath::kRational ? " rational" : " auto");
    Machine reference_engine(c.params, c.messages);
    reference_engine.set_time_path(TimePath::kRational);
    if (!c.plan.empty()) reference_engine.attach_faults(c.plan);
    const MachineResult ref = reference_engine.run(*c.make());

    Machine machine(c.params, c.messages);
    machine.set_time_path(path);
    if (!c.plan.empty()) machine.attach_faults(c.plan);
    const MachineResult seq = machine.run(*c.make());

    ParMachine par(c.params, c.messages);
    par.set_threads(threads);
    par.set_time_path(path);
    if (!c.plan.empty()) par.attach_faults(c.plan);
    FunctionFactory factory(c.make);
    const MachineResult got = par.run(factory);

    EXPECT_FALSE(ref.schedule.empty()) << tag;
    EXPECT_EQ(seq.schedule.events(), ref.schedule.events()) << tag;
    EXPECT_EQ(got.schedule.events(), ref.schedule.events()) << tag;
    EXPECT_EQ(resorted(got.schedule.events()), got.schedule.events()) << tag;
    EXPECT_EQ(seq.stats.port_busy, ref.stats.port_busy) << tag;
    EXPECT_EQ(got.stats.port_busy, ref.stats.port_busy) << tag;
    EXPECT_EQ(got.faults.events, ref.faults.events) << tag;
    saw_backlog = saw_backlog || ref.stats.sends_deferred > 0;
    const ParRunInfo& info = par.last_run_info();
    if (c.name == "off-grid timer" && path == TimePath::kAuto) {
      EXPECT_FALSE(seq.stats.tick_domain) << tag;  // transplanted
      EXPECT_EQ(info.fallback_reason, "off-grid timer armed mid-run") << tag;
    }
    const bool ticked = path == TimePath::kAuto && info.parallel_engine;
    if (c.name == "long timer") {
      EXPECT_EQ(info.assemble_fallback_sorts, ticked ? info.shards : 0u) << tag;
    } else if (c.name == "wide spike") {
      if (ticked && info.shards == 1) {
        EXPECT_EQ(info.assemble_fallback_sorts, 1u) << tag;
      }
    } else {
      EXPECT_EQ(info.assemble_fallback_sorts, 0u) << tag;
    }
  }
  EXPECT_TRUE(saw_backlog);
}

TEST_P(AssemblyDifferential, WarmRerunGrowsNoAssemblyScratch) {
  const auto [threads, path] = GetParam();
  for (const AssemblyCase& c : assembly_corpus()) {
    const std::string tag = c.name + " threads=" + std::to_string(threads);
    ParMachine par(c.params, c.messages);
    par.set_threads(threads);
    par.set_time_path(path);
    if (!c.plan.empty()) par.attach_faults(c.plan);
    FunctionFactory factory(c.make);
    const MachineResult cold = par.run(factory);
    const MachineResult warm = par.run(factory);
    EXPECT_EQ(warm.schedule.events(), cold.schedule.events()) << tag;
    if (par.last_run_info().parallel_engine) {
      EXPECT_EQ(par.last_run_info().arena_growths, 0u) << tag;
    }
  }
}

INSTANTIATE_TEST_SUITE_P(
    LanesAndTimePaths, AssemblyDifferential,
    ::testing::Combine(::testing::Values(1u, 2u, 3u, 4u, 7u),
                       ::testing::Values(TimePath::kAuto, TimePath::kRational)),
    [](const ::testing::TestParamInfo<std::tuple<unsigned, TimePath>>& param) {
      const bool ticked = std::get<1>(param.param) == TimePath::kAuto;
      return test::cat("t", std::to_string(std::get<0>(param.param)),
                       ticked ? "_auto" : "_rational");
    });

}  // namespace
}  // namespace postal
