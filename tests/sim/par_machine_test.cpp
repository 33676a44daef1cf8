// Unit coverage for the sharded runtime's mechanics: shard partitioning,
// run introspection (ParRunInfo), fallback plumbing, and the guard rails.
// Byte-identity against the sequential Machine across the full corpus
// lives in tests/paper/par_differential_test.cpp.
#include <cstdint>
#include <memory>

#include <gtest/gtest.h>

#include "faults/fault_plan.hpp"
#include "sim/machine.hpp"
#include "sim/par_machine.hpp"
#include "sim/protocols/bcast_protocol.hpp"
#include "support/error.hpp"

namespace postal {
namespace {

TEST(ParMachine, SingleRankRunCompletesWithNoEvents) {
  const PostalParams params(1, Rational(2));
  ParMachine par(params, 1);
  par.set_threads(4);
  auto factory = make_protocol_factory<BcastProtocol>(params);
  const MachineResult result = par.run(factory);
  EXPECT_TRUE(result.schedule.empty());
  EXPECT_TRUE(result.trace.deliveries().empty());
  EXPECT_TRUE(par.last_run_info().parallel_engine);
  EXPECT_EQ(par.last_run_info().shards, 1u);  // capped at n
}

TEST(ParMachine, RunInfoDescribesTheShardedRun) {
  const PostalParams params(64, Rational(3));
  ParMachine par(params, 1);
  par.set_threads(4);
  auto factory = make_protocol_factory<BcastProtocol>(params);
  const MachineResult result = par.run(factory);
  EXPECT_TRUE(result.trace.covers_all(0));

  const ParRunInfo& info = par.last_run_info();
  EXPECT_TRUE(info.parallel_engine);
  EXPECT_TRUE(info.fallback_reason.empty());
  EXPECT_EQ(info.shards, 4u);
  ASSERT_EQ(info.shard.size(), 4u);
  EXPECT_GT(info.windows, 0u);
  // BCAST floods rank 0's subtree outward: events must cross shards, and
  // every event reaches its destination through a barrier mailbox.
  EXPECT_GT(info.cross_shard_events, 0u);
  EXPECT_GE(info.barrier_events, info.cross_shard_events);
  EXPECT_GT(info.replayed_pops, 0u);
  std::uint64_t pops = 0;
  std::uint64_t mailbox_in = 0;
  for (const ParShardInfo& s : info.shard) {
    pops += s.pops;
    mailbox_in += s.mailbox_in;
  }
  EXPECT_GT(pops, 0u);
  EXPECT_EQ(mailbox_in, info.barrier_events);
}

TEST(ParMachine, ThreadCountIsCappedAtTheRankCount) {
  const PostalParams params(3, Rational(2));
  ParMachine par(params, 1);
  par.set_threads(16);
  EXPECT_EQ(par.threads(), 16u);
  auto factory = make_protocol_factory<BcastProtocol>(params);
  const MachineResult result = par.run(factory);
  EXPECT_EQ(par.last_run_info().shards, 3u);
  EXPECT_TRUE(result.trace.covers_all(0));
}

TEST(ParMachine, SetThreadsZeroMeansOne) {
  ParMachine par(PostalParams(8, Rational(2)), 1);
  par.set_threads(0);
  EXPECT_EQ(par.threads(), 1u);
}

TEST(ParMachine, WindowedEngineRunsAtOneShardToo) {
  // threads == 1 is not a sequential special case: the windowed engine and
  // its merge-replay must run (and agree) at a single shard as well.
  const PostalParams params(32, Rational(5, 2));
  ParMachine par(params, 1);
  par.set_threads(1);
  auto factory = make_protocol_factory<BcastProtocol>(params);
  const MachineResult result = par.run(factory);
  EXPECT_TRUE(par.last_run_info().parallel_engine);
  EXPECT_EQ(par.last_run_info().shards, 1u);
  EXPECT_GT(par.last_run_info().windows, 0u);
  EXPECT_TRUE(result.trace.covers_all(0));
}

TEST(ParMachine, MaxEventsGuardThrowsLikeTheSequentialEngine) {
  const PostalParams params(64, Rational(2));
  Machine machine(params, 1);
  BcastProtocol protocol(params);
  EXPECT_THROW(static_cast<void>(machine.run(protocol, /*max_events=*/8)),
               LogicError);

  ParMachine par(params, 1);
  par.set_threads(4);
  auto factory = make_protocol_factory<BcastProtocol>(params);
  EXPECT_THROW(static_cast<void>(par.run(factory, /*max_events=*/8)), LogicError);
}

TEST(ParMachine, FaultPlanAttachDetachMirrorsMachine) {
  const PostalParams params(12, Rational(2));
  ParMachine par(params, 1);
  EXPECT_FALSE(par.has_faults());
  FaultPlan plan;
  plan.crashes.push_back(CrashFault{3, Rational(1)});
  par.attach_faults(plan);
  EXPECT_TRUE(par.has_faults());
  auto factory = make_protocol_factory<BcastProtocol>(params);
  const MachineResult faulted = par.run(factory);
  EXPECT_EQ(faulted.faults.crashes_applied, 1u);
  par.detach_faults();
  EXPECT_FALSE(par.has_faults());
  const MachineResult clean = par.run(factory);
  EXPECT_EQ(clean.faults.crashes_applied, 0u);
  EXPECT_TRUE(clean.trace.covers_all(0));
}

TEST(ParMachine, WarmRerunNeverRegrowsTheDeliveryList) {
  // The engine reserves each run's delivery list at the previous run's
  // delivery count: an identical warm rerun fills it exactly, and the cold
  // run's doublings count as arena growths.
  const PostalParams params(4096, Rational(5, 2));
  ParMachine par(params, 1);
  par.set_threads(2);
  auto factory = make_protocol_factory<BcastProtocol>(params);
  const MachineResult cold = par.run(factory);
  EXPECT_GT(par.last_run_info().arena_growths, 0u);
  const MachineResult warm = par.run(factory);
  EXPECT_EQ(par.last_run_info().arena_growths, 0u);
  EXPECT_EQ(warm.trace.deliveries().size(), params.n() - 1);
  EXPECT_EQ(warm.trace.deliveries().capacity(), warm.trace.deliveries().size());
  EXPECT_EQ(warm.trace.deliveries(), cold.trace.deliveries());
  EXPECT_EQ(warm.schedule.events(), cold.schedule.events());
}

TEST(ParMachine, ShrinkingAndGrowingRunsMatchAFreshMachine) {
  // n is fixed per ParMachine, so the delivery count changes through the
  // fault plan: a crash of rank 1 at t = 0 cuts BCAST's largest subtree.
  // Fewer deliveries after more, and more after fewer, must each equal a
  // fresh machine's run; growing past the reserve counts as arena growth.
  const PostalParams params(2048, Rational(5, 2));
  FaultPlan crash;
  crash.crashes.push_back(CrashFault{1, Rational(0)});
  auto factory = make_protocol_factory<BcastProtocol>(params);
  const auto fresh_run = [&](bool crashed) {
    ParMachine fresh(params, 1);
    fresh.set_threads(3);
    if (crashed) fresh.attach_faults(crash);
    return fresh.run(factory);
  };
  const MachineResult large = fresh_run(false);
  const MachineResult small = fresh_run(true);
  ASSERT_LT(small.trace.deliveries().size(), large.trace.deliveries().size());

  ParMachine par(params, 1);
  par.set_threads(3);
  for (const bool crashed : {false, true, false, true}) {
    if (crashed) {
      par.attach_faults(crash);
    } else {
      par.detach_faults();
    }
    const MachineResult got = par.run(factory);
    const MachineResult& want = crashed ? small : large;
    EXPECT_EQ(got.schedule.events(), want.schedule.events()) << crashed;
    EXPECT_EQ(got.trace.deliveries(), want.trace.deliveries()) << crashed;
    EXPECT_EQ(got.faults.events, want.faults.events) << crashed;
    EXPECT_EQ(got.stats.port_busy, want.stats.port_busy) << crashed;
    EXPECT_TRUE(par.last_run_info().parallel_engine);
  }
  // The last run was the small one; the large one now outgrows its reserve.
  par.detach_faults();
  static_cast<void>(par.run(factory));
  EXPECT_GE(par.last_run_info().arena_growths, 1u);
}

TEST(ParMachine, AttachingAnEmptyPlanIsANoOp) {
  ParMachine par(PostalParams(4, Rational(1)), 1);
  par.attach_faults(FaultPlan{});
  EXPECT_FALSE(par.has_faults());
}

TEST(ProtocolFactory, MakesOneInstancePerShard) {
  const PostalParams params(8, Rational(2));
  auto factory = make_protocol_factory<BcastProtocol>(params);
  const std::unique_ptr<Protocol> a = factory.make(0, 2);
  const std::unique_ptr<Protocol> b = factory.make(1, 2);
  ASSERT_NE(a, nullptr);
  ASSERT_NE(b, nullptr);
  EXPECT_NE(a.get(), b.get());
}

}  // namespace
}  // namespace postal
