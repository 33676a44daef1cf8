// Micro-benchmarks (google-benchmark) of the library's hot paths: the
// generalized Fibonacci evaluator, schedule generation for each algorithm,
// full postal-model validation, and the Rational-vs-tick primitive
// operations that motivate the tick-domain fast path
// (docs/PERFORMANCE.md). These are engineering benchmarks (how fast is the
// implementation), not paper-reproduction benchmarks.
//
// main() runs the google-benchmark suite, then re-times the tick-domain
// primitive pairs with a plain stopwatch and emits one bench JSON record
// (obs/bench_record.hpp) carrying the ns/op numbers, so the micro results
// land in the same POSTAL_BENCH_JSON trajectory as the macro benches. The
// record also carries the ParMachine phase split, the arena proof, and the
// minor page faults of one simulate op at n = 2^18, measured before the
// suite runs.
#include <benchmark/benchmark.h>
#include <sys/resource.h>

#include <cstdint>
#include <string>
#include <vector>

#include "adaptive/hetero.hpp"
#include "brute/multi_search.hpp"
#include "model/genfib.hpp"
#include "net/packet_sim.hpp"
#include "obs/bench_record.hpp"
#include "sched/bcast.hpp"
#include "sched/kported.hpp"
#include "sched/dtree.hpp"
#include "sched/pipeline.hpp"
#include "sched/repeat.hpp"
#include "sim/event_queue.hpp"
#include "sim/par_machine.hpp"
#include "sim/protocols/bcast_protocol.hpp"
#include "sim/tick_queue.hpp"
#include "sim/validator.hpp"
#include "support/table.hpp"
#include "support/ticks.hpp"

namespace postal {
namespace {

void BM_GenFibIndex(benchmark::State& state) {
  const auto n = static_cast<std::uint64_t>(state.range(0));
  for (auto _ : state) {
    GenFib fib(Rational(5, 2));  // cold evaluator each iteration
    benchmark::DoNotOptimize(fib.f(n));
  }
}
BENCHMARK(BM_GenFibIndex)->Arg(1 << 8)->Arg(1 << 14)->Arg(1 << 20);

void BM_GenFibIndexWarm(benchmark::State& state) {
  const auto n = static_cast<std::uint64_t>(state.range(0));
  GenFib fib(Rational(5, 2));
  benchmark::DoNotOptimize(fib.f(n));  // warm the memo once
  for (auto _ : state) {
    benchmark::DoNotOptimize(fib.f(n));
  }
}
BENCHMARK(BM_GenFibIndexWarm)->Arg(1 << 14)->Arg(1 << 20);

void BM_BcastSchedule(benchmark::State& state) {
  const auto n = static_cast<std::uint64_t>(state.range(0));
  const PostalParams params(n, Rational(5, 2));
  GenFib fib(params.lambda());
  for (auto _ : state) {
    benchmark::DoNotOptimize(bcast_schedule(params, fib));
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(n - 1));
}
BENCHMARK(BM_BcastSchedule)->Arg(1 << 8)->Arg(1 << 12)->Arg(1 << 16);

void BM_RepeatSchedule(benchmark::State& state) {
  const PostalParams params(static_cast<std::uint64_t>(state.range(0)), Rational(5, 2));
  for (auto _ : state) {
    benchmark::DoNotOptimize(repeat_schedule(params, 16));
  }
}
BENCHMARK(BM_RepeatSchedule)->Arg(1 << 8)->Arg(1 << 12);

void BM_PipelineSchedule(benchmark::State& state) {
  const PostalParams params(static_cast<std::uint64_t>(state.range(0)), Rational(2));
  for (auto _ : state) {
    benchmark::DoNotOptimize(pipeline_schedule(params, 16));
  }
}
BENCHMARK(BM_PipelineSchedule)->Arg(1 << 8)->Arg(1 << 12);

void BM_DTreeSchedule(benchmark::State& state) {
  const PostalParams params(static_cast<std::uint64_t>(state.range(0)), Rational(5, 2));
  for (auto _ : state) {
    benchmark::DoNotOptimize(dtree_schedule(params, 16, 4));
  }
}
BENCHMARK(BM_DTreeSchedule)->Arg(1 << 8)->Arg(1 << 12);

void BM_ValidateBcast(benchmark::State& state) {
  const auto n = static_cast<std::uint64_t>(state.range(0));
  const PostalParams params(n, Rational(5, 2));
  const Schedule schedule = bcast_schedule(params);
  for (auto _ : state) {
    benchmark::DoNotOptimize(validate_schedule(schedule, params));
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(schedule.size()));
}
BENCHMARK(BM_ValidateBcast)->Arg(1 << 8)->Arg(1 << 12)->Arg(1 << 16)->Arg(1 << 18);

void BM_GenFibKIndex(benchmark::State& state) {
  const auto k = static_cast<std::uint64_t>(state.range(0));
  for (auto _ : state) {
    GenFibK fib(Rational(5, 2), k);
    benchmark::DoNotOptimize(fib.f(1 << 20));
  }
}
BENCHMARK(BM_GenFibKIndex)->Arg(1)->Arg(4)->Arg(16);

void BM_HeteroGreedy(benchmark::State& state) {
  const auto n = static_cast<std::uint64_t>(state.range(0));
  const HeteroLatency lat = HeteroLatency::random(n, Rational(1), Rational(6), 7);
  for (auto _ : state) {
    benchmark::DoNotOptimize(hetero_greedy_broadcast(lat));
  }
}
BENCHMARK(BM_HeteroGreedy)->Arg(32)->Arg(128);

void BM_ExhaustiveGapSearch(benchmark::State& state) {
  for (auto _ : state) {
    benchmark::DoNotOptimize(multi_broadcast_optimum(4, 3, 2, true));
  }
}
BENCHMARK(BM_ExhaustiveGapSearch);

void BM_PacketNetworkBroadcast(benchmark::State& state) {
  const auto n = static_cast<std::uint64_t>(state.range(0));
  const PostalParams params(n, Rational(4));
  GenFib fib(params.lambda());
  const Schedule schedule = bcast_schedule(params, fib);
  for (auto _ : state) {
    PacketNetwork net(Topology::complete(n, Rational(1)), NetConfig{});
    net.submit_schedule(schedule);
    benchmark::DoNotOptimize(net.run());
  }
}
BENCHMARK(BM_PacketNetworkBroadcast)->Arg(32)->Arg(128);

// --- Tick-domain primitives (docs/PERFORMANCE.md) ------------------------
// Each Rational benchmark has a tick twin doing the same arithmetic on the
// int64 representation. The operand sequences are chosen so the Rational
// side exercises its real hot-path costs (gcd normalization on add,
// cross-multiplication on compare) rather than trivial integer cases.

void BM_RationalAdd(benchmark::State& state) {
  const Rational step(5, 2);
  Rational acc(0);
  for (auto _ : state) {
    acc = acc + step;
    benchmark::DoNotOptimize(acc);
  }
}
BENCHMARK(BM_RationalAdd);

void BM_TickAdd(benchmark::State& state) {
  const Tick step = 5;  // 5/2 at resolution 1/2
  Tick acc = 0;
  for (auto _ : state) {
    acc += step;
    benchmark::DoNotOptimize(acc);
  }
}
BENCHMARK(BM_TickAdd);

// Mixed-denominator time values (so Rational comparisons take the
// cross-multiply path) and their tick twins at the common resolution 1/24.
// Indexed cyclically to keep the compiler from constant-folding the
// comparison out of the loop.
const Rational kCmpRationals[8] = {
    Rational(7919, 6),  Rational(10529, 8), Rational(7907, 6), Rational(331, 2),
    Rational(10531, 8), Rational(7919, 3),  Rational(997, 4),  Rational(7919, 8)};
const Tick kCmpTicks[8] = {7919 * 4,  10529 * 3, 7907 * 4,  331 * 12,
                           10531 * 3, 7919 * 8,  997 * 6,   7919 * 3};

void BM_RationalCompare(benchmark::State& state) {
  std::uint64_t i = 0;
  bool sink = false;
  for (auto _ : state) {
    sink ^= kCmpRationals[i & 7] < kCmpRationals[(i + 3) & 7];
    benchmark::DoNotOptimize(sink);
    ++i;
  }
}
BENCHMARK(BM_RationalCompare);

void BM_TickCompare(benchmark::State& state) {
  std::uint64_t i = 0;
  bool sink = false;
  for (auto _ : state) {
    sink ^= kCmpTicks[i & 7] < kCmpTicks[(i + 3) & 7];
    benchmark::DoNotOptimize(sink);
    ++i;
  }
}
BENCHMARK(BM_TickCompare);

void BM_EventQueuePushPop(benchmark::State& state) {
  // Steady-state heap churn at a realistic queue depth: 256 resident
  // events, each iteration pushes one and pops the earliest.
  EventQueue<std::uint64_t> q;
  Tick now = 0;
  for (Tick i = 0; i < 256; ++i) q.push(Rational(i, 2), static_cast<std::uint64_t>(i));
  for (auto _ : state) {
    q.push(Rational(now + 512, 2), 0);
    const auto popped = q.pop();
    benchmark::DoNotOptimize(popped);
    now = popped.first.num() * 2 / popped.first.den();
  }
}
BENCHMARK(BM_EventQueuePushPop);

void BM_TickBucketQueuePushPop(benchmark::State& state) {
  TickEventQueue<std::uint64_t> q;
  std::uint64_t seq = 0;
  Tick now = 0;
  for (Tick i = 0; i < 256; ++i) q.push(i, seq++, static_cast<std::uint64_t>(i));
  for (auto _ : state) {
    q.push(now + 512, seq++, 0);
    const auto popped = q.pop();
    benchmark::DoNotOptimize(popped);
    now = popped.first;
  }
}
BENCHMARK(BM_TickBucketQueuePushPop);

// --- ParMachine barrier paths (docs/SIMULATION.md, merge-replay v2) ------
// End-to-end sharded BCAST runs on a *reused* ParMachine, so after the
// first iteration every window buffer is at its high-water mark and the
// measured steady state allocates nothing. The barrier wall split
// (merge_ms = sequential slot assignment + parallel materialization,
// flush_ms = parallel per-destination mailbox merge) is reported as
// counters; the flush counter isolates the path that replaced the old
// per-barrier global std::sort.

void BM_MailboxFlush(benchmark::State& state) {
  const PostalParams params(static_cast<std::uint64_t>(state.range(0)),
                            Rational(5, 2));
  ParMachine machine(params, /*messages=*/1);
  machine.set_threads(2);
  auto factory = make_protocol_factory<BcastProtocol>(params);
  double flush_ms = 0.0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(machine.run(factory));
    flush_ms += machine.last_run_info().flush_ms;
  }
  state.counters["flush_ms_per_run"] =
      flush_ms / static_cast<double>(state.iterations());
}
BENCHMARK(BM_MailboxFlush)->Arg(1 << 12)->Arg(1 << 14);

void BM_MergeReplay(benchmark::State& state) {
  const PostalParams params(static_cast<std::uint64_t>(state.range(0)),
                            Rational(5, 2));
  ParMachine machine(params, /*messages=*/1);
  machine.set_threads(2);
  auto factory = make_protocol_factory<BcastProtocol>(params);
  double merge_ms = 0.0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(machine.run(factory));
    merge_ms += machine.last_run_info().merge_ms;
  }
  state.counters["merge_ms_per_run"] =
      merge_ms / static_cast<double>(state.iterations());
}
BENCHMARK(BM_MergeReplay)->Arg(1 << 12)->Arg(1 << 14);

// --- Bench-record emission ----------------------------------------------
// The google-benchmark harness owns the console output; for the JSON
// trajectory we re-time the tick-domain pairs with a plain stopwatch.
// Coarse (one run, fixed iteration count) but self-consistent: both sides
// of each pair run the identical loop shape.

template <typename Body>
double time_ns_per_op(std::uint64_t iterations, Body&& body) {
  const obs::WallClock clock;
  for (std::uint64_t i = 0; i < iterations; ++i) body(i);
  return clock.elapsed_ms() * 1e6 / static_cast<double>(iterations);
}

/// Minor page faults of this process so far: getrusage(RUSAGE_SELF), a
/// per-process read. The delta around one op counts the fresh pages it
/// faulted in (about 1 us each to map and zero).
std::int64_t minor_faults() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<std::int64_t>(usage.ru_minflt);
}

/// Fresh pages of one simulate op at n = 2^18, shaped like perfbench's
/// bcast_sim op: a ParMachine run on two lanes, then validate_schedule of
/// its schedule. Two warm-up ops size the arena, the delivery list and the
/// heap; the counts are the minor-fault deltas of the third op's two
/// phases, and its run must regrow nothing. main() measures this before
/// the google-benchmark suite runs: the counts depend on what the heap
/// already holds, so a fresh process keeps them independent of the filter.
struct OpFaults {
  std::int64_t par_run = 0;
  std::int64_t validate = 0;
  bool ok = true;
};

OpFaults measure_op_faults() {
  const PostalParams params(std::uint64_t{1} << 18, Rational(5, 2));
  ParMachine machine(params, /*messages=*/1);
  machine.set_threads(2);
  auto factory = make_protocol_factory<BcastProtocol>(params);
  OpFaults faults;
  for (int op = 0; op < 3; ++op) {
    const std::int64_t before_run = minor_faults();
    const MachineResult result = machine.run(factory);
    const std::int64_t before_validate = minor_faults();
    faults.ok = validate_schedule(result.schedule, params).ok && faults.ok;
    faults.validate = minor_faults() - before_validate;
    faults.par_run = before_validate - before_run;
  }
  faults.ok = faults.ok && machine.last_run_info().parallel_engine &&
              machine.last_run_info().arena_growths == 0;
  return faults;
}

void emit_micro_record(const OpFaults& op_faults) {
  constexpr std::uint64_t kOps = 2'000'000;
  Rational racc(0);
  const Rational rstep(5, 2);
  const double rational_add_ns =
      time_ns_per_op(kOps, [&](std::uint64_t) { racc = racc + rstep; });
  Tick tacc = 0;
  const double tick_add_ns = time_ns_per_op(kOps, [&](std::uint64_t) {
    tacc += 5;
    benchmark::DoNotOptimize(tacc);
  });
  bool sink = false;
  const double rational_cmp_ns = time_ns_per_op(kOps, [&](std::uint64_t i) {
    sink ^= kCmpRationals[i & 7] < kCmpRationals[(i + 3) & 7];
    benchmark::DoNotOptimize(sink);
  });
  const double tick_cmp_ns = time_ns_per_op(kOps, [&](std::uint64_t i) {
    sink ^= kCmpTicks[i & 7] < kCmpTicks[(i + 3) & 7];
    benchmark::DoNotOptimize(sink);
  });

  EventQueue<std::uint64_t> heap;
  for (Tick i = 0; i < 256; ++i) heap.push(Rational(i, 2), 0);
  Tick heap_now = 0;
  const double heap_ns = time_ns_per_op(kOps / 4, [&](std::uint64_t) {
    heap.push(Rational(heap_now + 512, 2), 0);
    const auto popped = heap.pop();
    heap_now = popped.first.num() * 2 / popped.first.den();
  });
  TickEventQueue<std::uint64_t> bucket;
  std::uint64_t seq = 0;
  for (Tick i = 0; i < 256; ++i) bucket.push(i, seq++, 0);
  Tick bucket_now = 0;
  const double bucket_ns = time_ns_per_op(kOps / 4, [&](std::uint64_t) {
    bucket.push(bucket_now + 512, seq++, 0);
    bucket_now = bucket.pop().first;
  });

  // ParMachine barrier split + arena proof: two back-to-back runs on one
  // engine. The cold run grows every window buffer to its high-water mark;
  // the warm run must report zero arena growths (the steady state
  // allocates nothing per window) and stay byte-identical to the cold one.
  const PostalParams par_params(std::uint64_t{1} << 14, Rational(5, 2));
  ParMachine par(par_params, /*messages=*/1);
  par.set_threads(2);
  auto par_factory = make_protocol_factory<BcastProtocol>(par_params);
  const MachineResult cold = par.run(par_factory);
  const std::uint64_t arena_growths_cold = par.last_run_info().arena_growths;
  const MachineResult warm = par.run(par_factory);
  const ParRunInfo& warm_info = par.last_run_info();
  const std::uint64_t arena_growths_warm = warm_info.arena_growths;
  const bool par_ok = warm_info.parallel_engine &&
                      arena_growths_warm == 0 &&
                      warm.schedule.events() == cold.schedule.events() &&
                      warm.trace.deliveries() == cold.trace.deliveries();

  // Validator cost per event on one BCAST schedule at n = 2^18 (the size
  // of perfbench's bcast_sim op), after one warm-up validation.
  const PostalParams val_params(std::uint64_t{1} << 18, Rational(5, 2));
  const Schedule val_schedule = bcast_schedule(val_params);
  const bool val_ok = validate_schedule(val_schedule, val_params).ok;
  const double validate_ns = time_ns_per_op(1, [&](std::uint64_t) {
    benchmark::DoNotOptimize(validate_schedule(val_schedule, val_params));
  });
  const double validate_ns_per_event =
      validate_ns / static_cast<double>(val_schedule.size());

  // Sanity gate: the stopwatch loops must have computed the same values
  // the benchmark loops do (racc = kOps * 5/2; both queues back at depth
  // 256), both warm ParMachine reruns must have proven the arena steady
  // state, and the simulate op and the timed schedule must validate. A
  // desync here means the record is mis-measuring.
  const bool ok = racc == rstep * Rational(static_cast<std::int64_t>(kOps)) &&
                  heap.size() == 256 && bucket.size() == 256 && par_ok &&
                  op_faults.ok && val_ok;

  obs::BenchRecord rec;
  rec.bench = "bench_micro";
  rec.n = 0;  // primitive ops, no instance size
  rec.lambda = Rational(5, 2);
  rec.makespan = Rational(0);
  rec.wall_ms = 0.0;
  rec.verdict = ok ? "CONSISTENT" : "MISMATCH";
  rec.extra = {
      {"rational_add_ns", fmt(rational_add_ns, 2)},
      {"tick_add_ns", fmt(tick_add_ns, 2)},
      {"rational_compare_ns", fmt(rational_cmp_ns, 2)},
      {"tick_compare_ns", fmt(tick_cmp_ns, 2)},
      {"heap_pushpop_ns", fmt(heap_ns, 2)},
      {"bucket_pushpop_ns", fmt(bucket_ns, 2)},
      {"add_speedup", fmt(tick_add_ns > 0 ? rational_add_ns / tick_add_ns : 0, 2)},
      {"compare_speedup",
       fmt(tick_cmp_ns > 0 ? rational_cmp_ns / tick_cmp_ns : 0, 2)},
      {"queue_speedup", fmt(bucket_ns > 0 ? heap_ns / bucket_ns : 0, 2)},
      {"mailbox_flush_ms", fmt(warm_info.flush_ms, 3)},
      {"merge_replay_ms", fmt(warm_info.merge_ms, 3)},
      {"merge_sequence_ms", fmt(warm_info.merge_sequence_ms, 3)},
      {"merge_materialize_ms", fmt(warm_info.merge_materialize_ms, 3)},
      {"setup_ms", fmt(warm_info.setup_ms, 3)},
      {"assemble_ms", fmt(warm_info.assemble_ms, 3)},
      {"assemble_fallback_sorts", std::to_string(warm_info.assemble_fallback_sorts)},
      {"flush_fallback_sorts", std::to_string(warm_info.flush_fallback_sorts)},
      {"arena_growths_cold", std::to_string(arena_growths_cold)},
      {"arena_growths_warm", std::to_string(arena_growths_warm)},
      {"validate_ns_per_event", fmt(validate_ns_per_event, 2)},
      {"validate_minflt", std::to_string(op_faults.validate)},
      {"par_run_minflt", std::to_string(op_faults.par_run)},
  };
  obs::emit_bench_record(rec);
}

}  // namespace
}  // namespace postal

int main(int argc, char** argv) {
  benchmark::Initialize(&argc, argv);
  if (benchmark::ReportUnrecognizedArguments(argc, argv)) return 1;
  const postal::OpFaults op_faults = postal::measure_op_faults();
  benchmark::RunSpecifiedBenchmarks();
  benchmark::Shutdown();
  postal::emit_micro_record(op_faults);
  return 0;
}
