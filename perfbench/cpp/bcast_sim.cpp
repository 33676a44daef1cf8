// bcast_sim: the `simulate` path. One op is a fault-free BCAST on the
// sharded ParMachine at n = 2^18, lambda = 5/2, 2 lanes, full trace,
// followed by validate_schedule. The op is fixed by Theorem 6, so the seed
// changes no input here; it is still recorded with the result.
#include <exception>
#include <iostream>
#include <sstream>

#include "model/genfib.hpp"
#include "sim/par_machine.hpp"
#include "sim/protocols/bcast_protocol.hpp"
#include "sim/validator.hpp"
#include "workload.hpp"

namespace perfbench {
namespace {

using namespace postal;

constexpr std::uint64_t kN = 1ULL << 18;
constexpr unsigned kLanes = 2;

class BcastSim final : public Workload {
 public:
  BcastSim(std::uint64_t seed, Tracer& tracer)
      : seed_(seed),
        params_(kN, Rational(5, 2)),
        expected_(GenFib(params_.lambda()).f(kN)),
        machine_(params_, /*messages=*/1),
        factory_(make_protocol_factory<BcastProtocol>(params_)),
        par_run_(tracer.intern("sim.par_run")),
        validate_(tracer.intern("sim.validate")) {
    machine_.set_threads(kLanes);
    machine_.set_trace_mode(TraceMode::kFull);
  }

  [[nodiscard]] std::string describe() const override {
    std::ostringstream out;
    out << "bcast_sim seed=" << seed_ << " n=" << kN << " lambda=5/2 lanes="
        << kLanes << " trace=full expected_makespan=" << expected_.str();
    return out.str();
  }

  UnitResult warm_up() override { return run_unit(nullptr, nullptr); }

  UnitResult run_unit(Tracer* tracer, Pacer* /*pacer*/) override {
    bool ok = false;
    try {
      MachineResult result;
      {
        const Span span(tracer, par_run_);
        result = machine_.run(factory_);
      }
      const ParRunInfo& info = machine_.last_run_info();
      SimReport report;
      {
        const Span span(tracer, validate_);
        report = validate_schedule(result.schedule, params_);
      }
      // The sharded engine must have run on ticks (no sequential or
      // Rational fallback), and the result must be Theorem 6's exactly.
      ok = info.parallel_engine && info.fallback_reason.empty() &&
           info.shards == kLanes && result.stats.tick_domain && report.ok &&
           report.tick_domain && report.makespan == expected_ &&
           result.stats.events_processed == kN - 1 &&
           result.trace.delivery_count() == kN - 1;
      if (!ok) {
        std::cerr << "bcast_sim: check failed (engine="
                  << (info.parallel_engine ? "sharded" : info.fallback_reason)
                  << ", valid=" << report.ok << ", makespan="
                  << report.makespan.str() << ", events="
                  << result.stats.events_processed << ")\n";
      }
      if (tracer != nullptr) {
        ++traced_ops_;
        events_ += result.stats.events_processed;
        windows_ += info.windows;
        cross_shard_ += info.cross_shard_events;
        arena_growths_ += info.arena_growths;
        window_s_ += info.window_ms * 1e-3;
        merge_s_ += info.merge_ms * 1e-3;
        flush_s_ += info.flush_ms * 1e-3;
      }
    } catch (const std::exception& e) {
      std::cerr << "bcast_sim: op threw: " << e.what() << '\n';
    }
    return UnitResult{1, ok ? 0U : 1U, 0};
  }

  [[nodiscard]] LayerValues layer_metrics(const Tracer& tracer) const override {
    if (traced_ops_ == 0) return {};
    const double ops = static_cast<double>(traced_ops_);
    const double run_s = tracer.mean_s(par_run_);
    const double window = window_s_ / ops;
    const double merge = merge_s_ / ops;
    const double flush = flush_s_ / ops;
    const double events = static_cast<double>(events_) / ops;
    return {
        {"sim.par_run_s", run_s},
        {"sim.par_window_s", window},
        {"sim.par_merge_s", merge},
        {"sim.par_flush_s", flush},
        {"sim.par_unattributed_s", run_s - window - merge - flush},
        {"sim.validate_s", tracer.mean_s(validate_)},
        {"sim.events", events},
        {"sim.ns_per_event", events > 0 ? run_s * 1e9 / events : 0.0},
        {"sim.windows", static_cast<double>(windows_) / ops},
        {"sim.cross_shard_events", static_cast<double>(cross_shard_) / ops},
        {"sim.arena_growths", static_cast<double>(arena_growths_)},
    };
  }

 private:
  std::uint64_t seed_;
  PostalParams params_;
  Rational expected_;
  ParMachine machine_;
  ProtocolFactory<BcastProtocol, PostalParams> factory_;
  Tracer::NameId par_run_;
  Tracer::NameId validate_;
  std::uint64_t traced_ops_ = 0;
  std::uint64_t events_ = 0;
  std::uint64_t windows_ = 0;
  std::uint64_t cross_shard_ = 0;
  std::uint64_t arena_growths_ = 0;
  double window_s_ = 0.0;
  double merge_s_ = 0.0;
  double flush_s_ = 0.0;
};

}  // namespace

std::unique_ptr<Workload> make_bcast_sim(std::uint64_t seed, Tracer& tracer) {
  return std::make_unique<BcastSim>(seed, tracer);
}

}  // namespace perfbench
