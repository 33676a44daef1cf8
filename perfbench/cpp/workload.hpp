// The workload interface the worker's main loop (main.cpp) runs.
//
// A workload is built from its seed, warmed up once (untimed), and then
// run in units: one bcast_sim op, one serve replay (many job ops), or one
// round of log_failover ops. Every op's output is checked exactly; a unit
// reports how many ops it ran and how many failed their check or threw.
#pragma once

#include <cstdint>
#include <map>
#include <memory>
#include <string>

#include "calibration.hpp"
#include "spans.hpp"

namespace perfbench {

struct UnitResult {
  std::uint64_t ops = 0;
  std::uint64_t failed = 0;
  /// Time of traced-only calls the unit made beyond its ops (direct
  /// planner and checker re-calls); excluded from the unit's op time.
  std::int64_t excluded_ns = 0;
};

/// Per-layer metric name -> value.
using LayerValues = std::map<std::string, double>;

class Workload {
 public:
  virtual ~Workload() = default;

  /// One line naming the workload's inputs (printed before the result).
  [[nodiscard]] virtual std::string describe() const = 0;

  /// The untimed warm-up unit: fills the library's lazy caches and arenas
  /// and records the reference outputs later units must reproduce.
  virtual UnitResult warm_up() = 0;

  /// One timed unit. `tracer` is null on untraced units; on traced units
  /// the workload opens spans around its library calls. `pacer`, when not
  /// null, wants a checkpoint() every few hundred ms of work.
  virtual UnitResult run_unit(Tracer* tracer, Pacer* pacer) = 0;

  /// The per-layer metrics this workload measures, from its traced units.
  /// Metrics it does not measure are left out (run.py reports them as 0).
  [[nodiscard]] virtual LayerValues layer_metrics(const Tracer& tracer) const = 0;
};

[[nodiscard]] std::unique_ptr<Workload> make_bcast_sim(std::uint64_t seed,
                                                       Tracer& tracer);
[[nodiscard]] std::unique_ptr<Workload> make_serve(std::uint64_t seed, bool exec,
                                                   Tracer& tracer);
[[nodiscard]] std::unique_ptr<Workload> make_log_failover(std::uint64_t seed,
                                                          Tracer& tracer);

}  // namespace perfbench
