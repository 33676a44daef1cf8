// Bridges from the instrumented layers' native stats structs into the
// metrics registry. The hot layers (sim/machine, net/packet_sim) collect
// plain structs with zero dependencies on this library; these helpers give
// the numbers their canonical metric names (the schema contract of
// docs/OBSERVABILITY.md) in one place.
#pragma once

#include <string>

#include "net/packet_sim.hpp"
#include "obs/metrics.hpp"
#include "sim/machine.hpp"
#include "sim/par_machine.hpp"
#include "sim/validator.hpp"

namespace postal::obs {

/// Fold one machine run into `registry` under `prefix`:
///   <prefix>.events_processed, .sends_enqueued, .sends_deferred  (counter)
///   <prefix>.max_fifo_depth                                      (gauge)
///   <prefix>.port_busy.p<i>  per processor, .port_busy.total     (rational)
void record_machine_stats(MetricsRegistry& registry, const MachineStats& stats,
                          const std::string& prefix = "machine");

/// Fold one packet-network run into `registry` under `prefix`:
///   <prefix>.packets_delivered, .hops_total, .jitter_draws       (counter)
///   <prefix>.egress_busy, .ingress_busy, .makespan               (rational)
///   <prefix>.wire_busy.w<from>_<to>  per used wire, .wire_busy.total
/// Per-wire *utilization* is wire busy / makespan; the registry keeps the
/// exact numerator and denominator rather than a rounded quotient.
void record_net_stats(MetricsRegistry& registry, const NetRunStats& stats,
                      const std::string& prefix = "net");

/// Fold a validation report into `registry` under `prefix`:
///   <prefix>.ok (gauge 0/1), <prefix>.violations (counter),
///   <prefix>.order_preserving (gauge 0/1), <prefix>.makespan (rational).
void record_sim_report(MetricsRegistry& registry, const SimReport& report,
                       const std::string& prefix = "validate");

/// Fold one ParMachine run's introspection into `registry` under `prefix`:
///   <prefix>.parallel_engine (gauge 0/1), .shards (gauge),
///   <prefix>.windows, .barrier_events, .cross_shard_events,
///   <prefix>.replayed_pops, .merge_deliveries, .merge_fault_events,
///   <prefix>.flush_runs, .flush_fallback_sorts,
///   <prefix>.assemble_fallback_sorts, .arena_growths            (counter)
///   <prefix>.trace_mode (gauge: 0 = kFull, 1 = kCounters)
///   <prefix>.shard<s>.pops, .shard<s>.stalled_windows,
///   <prefix>.shard<s>.mailbox_in  per shard                     (counter)
/// The stalled-window counters are the deterministic barrier-stall signal
/// (docs/SIMULATION.md): a shard that popped nothing all window sat at the
/// barrier for it. The wall-clock phases (setup_ms ... assemble_ms) are
/// left out of the registry -- they vary run to run; read them off
/// ParRunInfo directly.
void record_par_run(MetricsRegistry& registry, const ParRunInfo& info,
                    const std::string& prefix = "par");

/// Record the trace retention mode an engine is configured with:
///   <prefix>.trace_mode (gauge: 0 = TraceMode::kFull, 1 = kCounters).
void record_trace_mode(MetricsRegistry& registry, TraceMode mode,
                       const std::string& prefix = "sim");

/// Fold the faults applied during one run (Machine or PacketNetwork) into
/// `registry` under `prefix`:
///   <prefix>.crashes, .sends_suppressed, .drops_crash, .drops_loss,
///   <prefix>.spikes, .total                                     (counter)
/// All zero -- and the timeline empty -- for fault-free runs.
void record_fault_stats(MetricsRegistry& registry, const FaultStats& stats,
                        const std::string& prefix = "faults");

}  // namespace postal::obs
