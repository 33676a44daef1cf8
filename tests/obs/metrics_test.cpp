// Tests for the observability core: metric kind semantics, exact Rational
// accumulation, JSONL snapshots, the JSON linter, bench records, and the
// machine/network stats the registry is fed from.
#include <gtest/gtest.h>

#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <sstream>

#include "net/packet_sim.hpp"
#include "net/topology.hpp"
#include "obs/bench_record.hpp"
#include "obs/instrument.hpp"
#include "obs/json_lint.hpp"
#include "obs/metrics.hpp"
#include "sched/bcast.hpp"
#include "sim/machine.hpp"
#include "sim/par_machine.hpp"
#include "sim/protocols/bcast_protocol.hpp"
#include "support/error.hpp"
#include "test_util.hpp"

namespace postal {
namespace {

using obs::MetricsRegistry;

// ---------------------------------------------------------------------------
// Metric kinds
// ---------------------------------------------------------------------------

TEST(Metrics, CounterAccumulatesAndDefaultsToOne) {
  MetricsRegistry reg;
  reg.counter("events").add();
  reg.counter("events").add(41);
  EXPECT_EQ(reg.counter("events").value(), 42u);
  EXPECT_EQ(reg.size(), 1u);  // same name, same metric
}

TEST(Metrics, GaugeTracksHighWaterMark) {
  MetricsRegistry reg;
  obs::Gauge& depth = reg.gauge("fifo_depth");
  depth.set(3);
  depth.set(7);
  depth.set(2);
  EXPECT_EQ(depth.value(), 2);
  EXPECT_EQ(depth.max(), 7);
}

TEST(Metrics, RationalAccumulationIsExact) {
  MetricsRegistry reg;
  obs::RationalAccum& busy = reg.rational("port_busy");
  busy.add(Rational(1, 3));
  busy.add(Rational(1, 6));
  // 1/3 + 1/6 == 1/2 exactly; a float accumulator could not assert this.
  EXPECT_EQ(busy.total(), Rational(1, 2));
}

TEST(Metrics, TimerCountsSamples) {
  MetricsRegistry reg;
  {
    obs::ScopedTimer t(reg.timer("validate"));
  }
  {
    obs::ScopedTimer t(reg.timer("validate"));
  }
  EXPECT_EQ(reg.timer("validate").count(), 2u);
  reg.timer("manual").add_ns(2'500'000);
  EXPECT_DOUBLE_EQ(reg.timer("manual").total_ms(), 2.5);
}

TEST(Metrics, NameCannotChangeKind) {
  MetricsRegistry reg;
  reg.counter("x").add();
  EXPECT_THROW(reg.gauge("x"), InvalidArgument);
  EXPECT_THROW(reg.rational("x"), InvalidArgument);
  EXPECT_THROW(reg.timer("x"), InvalidArgument);
}

TEST(Metrics, ReferencesStayValidAcrossInserts) {
  MetricsRegistry reg;
  obs::Counter& first = reg.counter("a");
  for (int i = 0; i < 100; ++i) reg.counter(test::cat("c", std::to_string(i)));
  first.add(5);
  EXPECT_EQ(reg.counter("a").value(), 5u);
}

// ---------------------------------------------------------------------------
// JSONL snapshot
// ---------------------------------------------------------------------------

TEST(Metrics, JsonlSnapshotIsSortedValidJson) {
  MetricsRegistry reg;
  reg.counter("z.count").add(3);
  reg.gauge("a.depth").set(-2);
  reg.rational("m.busy").add(Rational(15, 2));
  reg.timer("t.wall").add_ns(1000);
  const std::string out = reg.to_jsonl();
  EXPECT_EQ(obs::jsonl_lint(out), std::nullopt) << out;
  // Lines sorted by metric name: a.depth, m.busy, t.wall, z.count.
  std::istringstream in(out);
  std::string line;
  std::vector<std::string> lines;
  while (std::getline(in, line)) lines.push_back(line);
  ASSERT_EQ(lines.size(), 4u);
  EXPECT_NE(lines[0].find("\"a.depth\""), std::string::npos);
  EXPECT_NE(lines[0].find("\"max\":0"), std::string::npos);
  EXPECT_NE(lines[1].find("\"15/2\""), std::string::npos);
  EXPECT_NE(lines[2].find("\"count\":1"), std::string::npos);
  EXPECT_NE(lines[3].find("\"value\":3"), std::string::npos);
}

TEST(Metrics, EmptyRegistrySerializesToEmptyString) {
  EXPECT_EQ(MetricsRegistry().to_jsonl(), "");
}

// ---------------------------------------------------------------------------
// JSON linter
// ---------------------------------------------------------------------------

TEST(JsonLint, AcceptsValidDocuments) {
  for (const char* ok :
       {"{}", "[]", "null", "true", "-1.5e-3", "\"s\"", "[1,2,{\"a\":[]}]",
        "  {\"k\":\"v\\n\\u00e9\"}  ", "{\"a\":{\"b\":[false,null,0.25]}}"}) {
    EXPECT_EQ(obs::json_lint(ok), std::nullopt) << ok;
  }
}

TEST(JsonLint, RejectsInvalidDocuments) {
  for (const char* bad :
       {"", "{", "[1,]", "{\"a\":}", "{'a':1}", "01", "nul", "\"unterminated",
        "{\"a\":1}{\"b\":2}", "[1 2]", "\"bad\\escape\"", "+1"}) {
    EXPECT_NE(obs::json_lint(bad), std::nullopt) << bad;
  }
}

TEST(JsonLint, JsonlChecksEveryLine) {
  EXPECT_EQ(obs::jsonl_lint("{\"a\":1}\n\n{\"b\":2}\n"), std::nullopt);
  const auto err = obs::jsonl_lint("{\"a\":1}\n{broken\n");
  ASSERT_TRUE(err.has_value());
  EXPECT_NE(err->find("line 2"), std::string::npos) << *err;
}

// ---------------------------------------------------------------------------
// Machine instrumentation
// ---------------------------------------------------------------------------

TEST(MachineStats, CountsMatchScheduleAndTrace) {
  const PostalParams params(14, Rational(5, 2));
  Machine machine(params, 1);
  BcastProtocol protocol(params);
  const MachineResult result = machine.run(protocol);

  EXPECT_EQ(result.stats.events_processed, result.trace.deliveries().size());
  EXPECT_EQ(result.stats.sends_enqueued, result.schedule.size());
  // Each send occupies the output port for exactly one unit.
  const auto sends = result.schedule.sends_per_proc(params.n());
  ASSERT_EQ(result.stats.port_busy.size(), params.n());
  for (ProcId p = 0; p < params.n(); ++p) {
    EXPECT_EQ(result.stats.port_busy[p],
              Rational(static_cast<std::int64_t>(sends[p])));
  }
  // The BCAST origin enqueues its whole send chain up front, so the FIFO
  // really backs up: p0 performs 6 sends in MPS(14, 5/2).
  EXPECT_EQ(result.stats.max_fifo_depth, 6u);
  EXPECT_GT(result.stats.sends_deferred, 0u);
  EXPECT_LT(result.stats.sends_deferred, result.stats.sends_enqueued);
}

TEST(MachineStats, RecordIntoRegistry) {
  const PostalParams params(8, Rational(2));
  Machine machine(params, 1);
  BcastProtocol protocol(params);
  const MachineResult result = machine.run(protocol);

  MetricsRegistry reg;
  obs::record_machine_stats(reg, result.stats);
  EXPECT_EQ(reg.counter("machine.events_processed").value(),
            result.stats.events_processed);
  EXPECT_EQ(reg.rational("machine.port_busy.total").total(),
            Rational(static_cast<std::int64_t>(result.schedule.size())));
  EXPECT_EQ(reg.gauge("machine.max_fifo_depth").max(),
            static_cast<std::int64_t>(result.stats.max_fifo_depth));
  EXPECT_EQ(obs::jsonl_lint(reg.to_jsonl()), std::nullopt);
}

TEST(MachineStats, RecordParRunIntoRegistry) {
  const PostalParams params(32, Rational(2));
  ParMachine machine(params, 1);
  machine.set_threads(4);
  auto factory = make_protocol_factory<BcastProtocol>(params);
  static_cast<void>(machine.run(factory));
  const ParRunInfo& info = machine.last_run_info();
  ASSERT_TRUE(info.parallel_engine);

  MetricsRegistry reg;
  obs::record_par_run(reg, info);
  EXPECT_EQ(reg.gauge("par.parallel_engine").max(), 1);
  EXPECT_EQ(reg.gauge("par.shards").max(), static_cast<std::int64_t>(info.shards));
  EXPECT_EQ(reg.counter("par.windows").value(), info.windows);
  EXPECT_EQ(reg.counter("par.barrier_events").value(), info.barrier_events);
  EXPECT_EQ(reg.counter("par.replayed_pops").value(), info.replayed_pops);
  std::uint64_t stalled = 0;
  for (std::uint32_t s = 0; s < info.shards; ++s) {
    const std::string base = "par.shard" + std::to_string(s);
    EXPECT_EQ(reg.counter(base + ".pops").value(), info.shard[s].pops);
    stalled += reg.counter(base + ".stalled_windows").value();
  }
  std::uint64_t expected_stalled = 0;
  for (const ParShardInfo& s : info.shard) expected_stalled += s.stalled_windows;
  EXPECT_EQ(stalled, expected_stalled);
  EXPECT_EQ(obs::jsonl_lint(reg.to_jsonl()), std::nullopt);
}

TEST(MachineStats, ResetBetweenRuns) {
  const PostalParams params(8, Rational(2));
  Machine machine(params, 1);
  BcastProtocol protocol(params);
  const MachineResult first = machine.run(protocol);
  const MachineResult second = machine.run(protocol);
  EXPECT_EQ(first.stats.events_processed, second.stats.events_processed);
  EXPECT_EQ(first.stats.port_busy, second.stats.port_busy);
}

// ---------------------------------------------------------------------------
// Network instrumentation
// ---------------------------------------------------------------------------

TEST(NetStats, WireUtilizationOnALine) {
  // 3-node line: 0 -> 2 routes through 1, so two wires serialize once each.
  PacketNetwork net(Topology::mesh2d(1, 3, Rational(1)), NetConfig{});
  net.submit(0, 2, 0, Rational(0));
  const auto deliveries = net.run();
  ASSERT_EQ(deliveries.size(), 1u);

  const NetRunStats& stats = net.last_run_stats();
  EXPECT_EQ(stats.packets_delivered, 1u);
  EXPECT_EQ(stats.hops_total, 2u);
  EXPECT_EQ(stats.jitter_draws, 0u);
  EXPECT_EQ(stats.egress_busy_total, NetConfig{}.send_overhead);
  EXPECT_EQ(stats.ingress_busy_total, NetConfig{}.recv_overhead);
  EXPECT_EQ(stats.makespan, deliveries.front().delivered);
  ASSERT_EQ(stats.wires.size(), 2u);
  EXPECT_EQ(stats.wires[0].from, 0u);
  EXPECT_EQ(stats.wires[0].to, 1u);
  EXPECT_EQ(stats.wires[0].packets, 1u);
  EXPECT_EQ(stats.wires[0].busy, NetConfig{}.wire_time);
  EXPECT_EQ(stats.wires[1].from, 1u);
  EXPECT_EQ(stats.wires[1].to, 2u);
}

TEST(NetStats, JitterDrawsCountedAndRegistryRoundTrip) {
  NetConfig config;
  config.jitter_max = Rational(1, 2);
  PacketNetwork net(Topology::complete(4, Rational(1)), config);
  for (NodeId dst = 1; dst < 4; ++dst) net.submit(0, dst, 0, Rational(0));
  const auto deliveries = net.run();
  ASSERT_EQ(deliveries.size(), 3u);
  const NetRunStats& stats = net.last_run_stats();
  EXPECT_EQ(stats.jitter_draws, stats.hops_total);  // one draw per hop

  MetricsRegistry reg;
  obs::record_net_stats(reg, stats);
  EXPECT_EQ(reg.counter("net.packets_delivered").value(), 3u);
  EXPECT_EQ(reg.counter("net.hops_total").value(), stats.hops_total);
  Rational wire_total(0);
  for (const WireUse& use : stats.wires) wire_total += use.busy;
  EXPECT_EQ(reg.rational("net.wire_busy.total").total(), wire_total);
  EXPECT_EQ(obs::jsonl_lint(reg.to_jsonl()), std::nullopt);
}

TEST(NetStats, EmptyBeforeFirstRunAndResetBetweenRuns) {
  PacketNetwork net(Topology::complete(3, Rational(1)), NetConfig{});
  EXPECT_EQ(net.last_run_stats().packets_delivered, 0u);
  net.submit(0, 1, 0, Rational(0));
  (void)net.run();
  EXPECT_EQ(net.last_run_stats().packets_delivered, 1u);
  // Reused with no traffic: stats reflect the (empty) latest run.
  (void)net.run();
  EXPECT_EQ(net.last_run_stats().packets_delivered, 0u);
  EXPECT_EQ(net.last_run_stats().makespan, Rational(0));
}

// ---------------------------------------------------------------------------
// Bench records
// ---------------------------------------------------------------------------

obs::BenchRecord sample_record() {
  obs::BenchRecord rec;
  rec.bench = "bench_fig1_tree";
  rec.n = 14;
  rec.lambda = Rational(5, 2);
  rec.m = 1;
  rec.makespan = Rational(15, 2);
  rec.wall_ms = 0.5;
  rec.verdict = "MATCHES PAPER";
  rec.extra = {{"figure", "1"}};
  return rec;
}

TEST(BenchRecord, JsonCarriesTheStableKeys) {
  const std::string json = bench_record_to_json(sample_record());
  EXPECT_EQ(obs::json_lint(json), std::nullopt) << json;
  for (const char* key : {"\"bench\":\"bench_fig1_tree\"", "\"n\":14",
                          "\"lambda\":\"5/2\"", "\"m\":1", "\"makespan\":\"15/2\"",
                          "\"wall_ms\":0.5", "\"verdict\":\"MATCHES PAPER\"",
                          "\"figure\":\"1\""}) {
    EXPECT_NE(json.find(key), std::string::npos) << key << " missing in " << json;
  }
}

TEST(BenchRecord, EmitHonorsEnvironmentVariable) {
  const std::string path =
      ::testing::TempDir() + "/postal_bench_record_test.jsonl";
  std::remove(path.c_str());

  ASSERT_EQ(unsetenv("POSTAL_BENCH_JSON"), 0);
  EXPECT_FALSE(obs::emit_bench_record(sample_record()));

  ASSERT_EQ(setenv("POSTAL_BENCH_JSON", path.c_str(), 1), 0);
  EXPECT_TRUE(obs::emit_bench_record(sample_record()));
  EXPECT_TRUE(obs::emit_bench_record(sample_record()));  // appends
  ASSERT_EQ(unsetenv("POSTAL_BENCH_JSON"), 0);

  std::ifstream in(path);
  std::stringstream content;
  content << in.rdbuf();
  EXPECT_EQ(obs::jsonl_lint(content.str()), std::nullopt);
  std::size_t lines = 0;
  std::string line;
  std::istringstream reread(content.str());
  while (std::getline(reread, line)) {
    if (!line.empty()) ++lines;
  }
  EXPECT_EQ(lines, 2u);
  std::remove(path.c_str());
}

TEST(BenchRecord, EmitToUnwritablePathWarnsInsteadOfThrowing) {
  // An opt-in side channel must never crash a finished bench: a bad path
  // drops the record with a stderr warning and reports false.
  ASSERT_EQ(setenv("POSTAL_BENCH_JSON", "/nonexistent-dir/records.jsonl", 1), 0);
  EXPECT_FALSE(obs::emit_bench_record(sample_record()));
  ASSERT_EQ(unsetenv("POSTAL_BENCH_JSON"), 0);
}

}  // namespace
}  // namespace postal
