#include "obs/instrument.hpp"

namespace postal::obs {

void record_machine_stats(MetricsRegistry& registry, const MachineStats& stats,
                          const std::string& prefix) {
  registry.counter(prefix + ".events_processed").add(stats.events_processed);
  registry.counter(prefix + ".sends_enqueued").add(stats.sends_enqueued);
  registry.counter(prefix + ".sends_deferred").add(stats.sends_deferred);
  registry.gauge(prefix + ".max_fifo_depth")
      .set(static_cast<std::int64_t>(stats.max_fifo_depth));
  RationalAccum& total = registry.rational(prefix + ".port_busy.total");
  for (std::size_t p = 0; p < stats.port_busy.size(); ++p) {
    registry.rational(prefix + ".port_busy.p" + std::to_string(p))
        .add(stats.port_busy[p]);
    total.add(stats.port_busy[p]);
  }
}

void record_net_stats(MetricsRegistry& registry, const NetRunStats& stats,
                      const std::string& prefix) {
  registry.counter(prefix + ".packets_delivered").add(stats.packets_delivered);
  registry.counter(prefix + ".hops_total").add(stats.hops_total);
  registry.counter(prefix + ".jitter_draws").add(stats.jitter_draws);
  registry.rational(prefix + ".egress_busy").add(stats.egress_busy_total);
  registry.rational(prefix + ".ingress_busy").add(stats.ingress_busy_total);
  registry.rational(prefix + ".makespan").add(stats.makespan);
  RationalAccum& total = registry.rational(prefix + ".wire_busy.total");
  for (const WireUse& use : stats.wires) {
    registry
        .rational(prefix + ".wire_busy.w" + std::to_string(use.from) + "_" +
                  std::to_string(use.to))
        .add(use.busy);
    total.add(use.busy);
  }
}

void record_sim_report(MetricsRegistry& registry, const SimReport& report,
                       const std::string& prefix) {
  registry.gauge(prefix + ".ok").set(report.ok ? 1 : 0);
  registry.counter(prefix + ".violations").add(report.violations.size());
  registry.gauge(prefix + ".order_preserving").set(report.order_preserving ? 1 : 0);
  registry.rational(prefix + ".makespan").add(report.makespan);
}

void record_par_run(MetricsRegistry& registry, const ParRunInfo& info,
                    const std::string& prefix) {
  registry.gauge(prefix + ".parallel_engine").set(info.parallel_engine ? 1 : 0);
  registry.gauge(prefix + ".shards").set(static_cast<std::int64_t>(info.shards));
  registry.counter(prefix + ".windows").add(info.windows);
  registry.counter(prefix + ".barrier_events").add(info.barrier_events);
  registry.counter(prefix + ".cross_shard_events").add(info.cross_shard_events);
  registry.counter(prefix + ".replayed_pops").add(info.replayed_pops);
  registry.counter(prefix + ".merge_deliveries").add(info.merge_deliveries);
  registry.counter(prefix + ".merge_fault_events").add(info.merge_fault_events);
  registry.counter(prefix + ".flush_runs").add(info.flush_runs);
  registry.counter(prefix + ".flush_fallback_sorts").add(info.flush_fallback_sorts);
  registry.counter(prefix + ".assemble_fallback_sorts")
      .add(info.assemble_fallback_sorts);
  registry.counter(prefix + ".arena_growths").add(info.arena_growths);
  record_trace_mode(registry, info.trace_mode, prefix);
  for (std::size_t s = 0; s < info.shard.size(); ++s) {
    const std::string base = prefix + ".shard" + std::to_string(s);
    registry.counter(base + ".pops").add(info.shard[s].pops);
    registry.counter(base + ".stalled_windows").add(info.shard[s].stalled_windows);
    registry.counter(base + ".mailbox_in").add(info.shard[s].mailbox_in);
  }
}

void record_trace_mode(MetricsRegistry& registry, TraceMode mode,
                       const std::string& prefix) {
  registry.gauge(prefix + ".trace_mode")
      .set(mode == TraceMode::kCounters ? 1 : 0);
}

void record_fault_stats(MetricsRegistry& registry, const FaultStats& stats,
                        const std::string& prefix) {
  registry.counter(prefix + ".crashes").add(stats.crashes_applied);
  registry.counter(prefix + ".sends_suppressed").add(stats.sends_suppressed);
  registry.counter(prefix + ".drops_crash").add(stats.drops_crash);
  registry.counter(prefix + ".drops_loss").add(stats.drops_loss);
  registry.counter(prefix + ".spikes").add(stats.spikes_applied);
  registry.counter(prefix + ".total").add(stats.total());
}

}  // namespace postal::obs
