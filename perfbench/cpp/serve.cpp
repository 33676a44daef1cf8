// serve_exec and serve_plan: the `serve` path. One op is one job submitted
// to a BroadcastService; a unit replays one (spec, seed) from a fresh
// service and generator, the way run_service does, and checks the drained
// report byte for byte against the warm-up replay. The open loop lives in
// model time (the spec's arrivals); the client drives it in a closed loop
// in host time.
#include <exception>
#include <iostream>
#include <optional>
#include <sstream>
#include <string>

#include "oracle/oracle.hpp"
#include "sched/registry.hpp"
#include "support/error.hpp"
#include "support/prng.hpp"
#include "svc/service.hpp"
#include "svc/workload.hpp"
#include "workload.hpp"

namespace perfbench {
namespace {

using namespace postal;
using namespace postal::svc;

// serve_exec: small m = 1 jobs, every 4th admitted one executed
// event-driven under a per-job seeded fault plan (a crash and lossy links).
// The n = 4096 shape carries most of the weight: the exec cost of one job
// grows with n, and a mix dominated by rare expensive jobs would make a
// replay's cost hinge on how many of them the seed draws. The load is
// light enough that hardly any job is shed, for the same reason.
constexpr const char* kExecSpec =
    "poisson;grid=16;rate=1/64;jobs=2000;"
    "mix=w1:n64:l2:m1|w1:n256:l5/2:m1|w8:n4096:l3:m1";

// serve_plan: plan-only. m = 1 jobs up to n = 10^12 go to the oracle; a
// small weight of m > 1 jobs goes to the Section 4 registry.
constexpr const char* kPlanSpec =
    "poisson;grid=16;rate=1/40;jobs=150000;"
    "mix=w100:n1000000000000:l5/2:m1|w100:n1000000:l3:m1|w100:n4096:l2:m1|"
    "w1:n64:l2:m16|w1:n256:l5/2:m4";

class Serve final : public Workload {
 public:
  Serve(std::uint64_t seed, bool exec, Tracer& tracer)
      : seed_(seed),
        exec_(exec),
        spec_(WorkloadSpec::parse(exec ? kExecSpec : kPlanSpec)),
        spec_text_(spec_.to_string()),
        checkpoint_jobs_(exec ? 100 : 25000),
        construct_(tracer.intern("svc.construct")),
        gen_(tracer.intern("svc.gen")),
        submit_exec_(tracer.intern("svc.submit_exec")),
        submit_plan_(tracer.intern("svc.submit_plan")),
        submit_shed_(tracer.intern("svc.submit_shed")),
        drain_(tracer.intern("svc.drain")),
        report_json_(tracer.intern("obs.report_json")),
        oracle_plan_(tracer.intern("oracle.plan")),
        registry_plan_(tracer.intern("sched.registry_plan")) {
    options_.queue_capacity = 64;
    options_.threads = 1;
    // As run_service does: fold the histogram grid from the spec.
    if (const auto grid = spec_.sojourn_grid()) options_.sojourn_grid = *grid;
    if (exec_) {
      options_.exec_every = 4;
      // Nonzero by construction: 0 would mean fault-free execution.
      options_.fault_seed = SplitMix64(seed ^ 0x5eedfa17ULL).next() | 1ULL;
      options_.fault_options.crashes = 1;
      options_.fault_options.loss_p = Rational(1, 4);
      options_.fault_options.lossy_links = 4;
      options_.fault_options.max_losses = 2;
    }
  }

  [[nodiscard]] std::string describe() const override {
    std::ostringstream out;
    out << (exec_ ? "serve_exec" : "serve_plan") << " seed=" << seed_
        << " spec=" << spec_text_ << " queue=" << options_.queue_capacity
        << " exec_every=" << options_.exec_every
        << " fault_seed=" << options_.fault_seed;
    return out.str();
  }

  UnitResult warm_up() override {
    UnitResult r = run_unit(nullptr, nullptr);
    std::cerr << (exec_ ? "serve_exec" : "serve_plan") << ": reference "
              << reference_ << '\n';
    return r;
  }

  UnitResult run_unit(Tracer* tracer, Pacer* pacer) override {
    UnitResult unit{spec_.jobs, 0, 0};
    try {
      unit.failed = replay(tracer, pacer, unit.excluded_ns);
    } catch (const std::exception& e) {
      std::cerr << "serve: replay threw: " << e.what() << '\n';
      unit.failed = spec_.jobs;
    }
    return unit;
  }

  [[nodiscard]] LayerValues layer_metrics(const Tracer& tracer) const override {
    if (traced_replays_ == 0) return {};
    const auto per = [](double num, std::uint64_t den) {
      return den == 0 ? 0.0 : num / static_cast<double>(den);
    };
    const auto& plan = tracer.totals(submit_plan_);
    const double plan_self_ns =
        static_cast<double>(plan.total_ns) - static_cast<double>(plan_probe_ns_);
    const ServiceCounters& c = counters_;
    return {
        {"svc.submit_exec_s", tracer.mean_s(submit_exec_)},
        {"svc.submit_plan_s", tracer.mean_s(submit_plan_)},
        {"svc.submit_shed_s", tracer.mean_s(submit_shed_)},
        {"svc.self_s", per(plan_self_ns * 1e-9, plan.count)},
        {"svc.construct_s", tracer.mean_s(construct_)},
        {"svc.gen_s", tracer.mean_s(gen_)},
        {"svc.drain_s", tracer.mean_s(drain_)},
        {"obs.report_json_s", tracer.mean_s(report_json_)},
        {"oracle.plan_s", tracer.mean_s(oracle_plan_)},
        {"sched.registry_plan_s", tracer.mean_s(registry_plan_)},
        {"faults.retransmissions_per_exec",
         per(static_cast<double>(c.exec_retransmissions), c.exec_runs)},
        {"faults.repairs", static_cast<double>(c.exec_repairs)},
        {"faults.crashed", static_cast<double>(c.exec_crashed)},
        {"svc.admitted", static_cast<double>(c.admitted)},
        {"svc.shed", static_cast<double>(c.shed)},
        {"svc.planned_oracle", static_cast<double>(c.planned_oracle)},
        {"svc.planned_registry", static_cast<double>(c.planned_registry)},
        {"svc.planned_materialized", static_cast<double>(c.planned_materialized)},
    };
  }

 private:
  /// One replay; returns the number of failed job ops.
  std::uint64_t replay(Tracer* tracer, Pacer* pacer, std::int64_t& excluded_ns) {
    std::optional<BroadcastService> service;
    std::optional<WorkloadGenerator> generator;
    {
      const Span span(tracer, construct_);
      service.emplace(options_);
      generator.emplace(spec_, seed_);
    }
    std::uint64_t failed = 0;
    for (;;) {
      std::optional<Job> job;
      {
        const Span span(tracer, gen_);
        job = generator->next();
      }
      if (!job) break;
      if (pacer != nullptr && job->id % checkpoint_jobs_ == checkpoint_jobs_ - 1) {
        pacer->checkpoint();
      }
      if (tracer == nullptr) {
        const JobOutcome outcome = service->submit(*job);
        if (!(outcome.job == *job)) ++failed;
        continue;
      }
      tracer->begin();
      const JobOutcome outcome = service->submit(*job);
      const Tracer::NameId name = outcome.executed   ? submit_exec_
                                  : outcome.admitted ? submit_plan_
                                                     : submit_shed_;
      static_cast<void>(tracer->end(name));
      bool ok = outcome.job == *job;
      if (outcome.admitted) {
        // Re-plan the job's shape directly, so the planner's own time is
        // measured apart from the service's; it must agree exactly.
        const std::int64_t probe_ns = probe_plan(*tracer, *job, outcome, ok);
        excluded_ns += probe_ns;
        if (!outcome.executed) plan_probe_ns_ += probe_ns;
      }
      if (!ok) ++failed;
    }
    ServiceReport report;
    {
      const Span span(tracer, drain_);
      report = service->drain();
    }
    report.spec = spec_text_;
    report.seed = seed_;
    std::string json;
    {
      const Span span(tracer, report_json_);
      json = report.to_json();
    }
    if (!replay_ok(report.counters, json)) return spec_.jobs;
    if (tracer != nullptr) {
      ++traced_replays_;
      counters_ = report.counters;
    }
    return failed;
  }

  /// Times the planner the service would pick for `job`, called directly.
  std::int64_t probe_plan(Tracer& tracer, const Job& job,
                          const JobOutcome& outcome, bool& ok) {
    Rational planned;
    tracer.begin();
    if (job.m == 1) {
      planned = oracle::ScheduleOracle(job.n, job.lambda).makespan();
    } else {
      const PostalParams params(job.n, job.lambda);
      bool found = false;
      for (const MultiAlgo algo : all_multi_algos()) {
        try {
          const Rational t = predict_multi(algo, params, job.m);
          if (!found || t < planned) planned = t;
          found = true;
        } catch (const InvalidArgument&) {
          // outside this algorithm's regime, as in the service
        }
      }
    }
    const std::int64_t ns =
        tracer.end(job.m == 1 ? oracle_plan_ : registry_plan_).duration_ns;
    if (planned != outcome.planned_makespan) {
      std::cerr << "serve: job " << job.id << " planned "
                << outcome.planned_makespan.str() << ", direct planner says "
                << planned.str() << '\n';
      ok = false;
    }
    return ns;
  }

  /// The replay-level checks: conservation, the exec tier's accounting,
  /// no planner fallback, and byte identity with the warm-up replay.
  bool replay_ok(const ServiceCounters& c, const std::string& json) {
    std::ostringstream why;
    if (c.generated != spec_.jobs || c.generated != c.admitted + c.shed) {
      why << "conservation generated=" << c.generated << " admitted=" << c.admitted
          << " shed=" << c.shed;
    } else if (c.completed != c.admitted) {
      why << "drained " << c.completed << " of " << c.admitted;
    } else if (c.planned_oracle + c.planned_registry + c.planned_materialized !=
               c.admitted) {
      why << "planner counts do not sum to admitted";
    } else if (c.planned_materialized != 0) {
      why << c.planned_materialized << " materialized planner fallbacks";
    } else if (exec_ && (c.exec_runs != (c.admitted + 3) / 4 ||
                         c.exec_verified + c.exec_faulted != c.exec_runs)) {
      why << "exec tier ran " << c.exec_runs << " verified " << c.exec_verified
          << " faulted " << c.exec_faulted;
    } else if (!exec_ && c.exec_runs != 0) {
      why << "plan-only replay executed " << c.exec_runs << " jobs";
    } else if (reference_.empty()) {
      reference_ = json;
      return true;
    } else if (json != reference_) {
      why << "report differs from the first replay";
    } else {
      return true;
    }
    std::cerr << "serve: replay check failed: " << why.str() << '\n';
    return false;
  }

  std::uint64_t seed_;
  bool exec_;
  WorkloadSpec spec_;
  std::string spec_text_;
  std::uint64_t checkpoint_jobs_;  ///< jobs between Pacer checkpoints
  ServiceOptions options_;
  std::string reference_;
  Tracer::NameId construct_;
  Tracer::NameId gen_;
  Tracer::NameId submit_exec_;
  Tracer::NameId submit_plan_;
  Tracer::NameId submit_shed_;
  Tracer::NameId drain_;
  Tracer::NameId report_json_;
  Tracer::NameId oracle_plan_;
  Tracer::NameId registry_plan_;
  std::uint64_t traced_replays_ = 0;
  std::int64_t plan_probe_ns_ = 0;  ///< probe time of plan-only admitted jobs
  ServiceCounters counters_;        ///< from the last traced replay
};

}  // namespace

std::unique_ptr<Workload> make_serve(std::uint64_t seed, bool exec,
                                     Tracer& tracer) {
  return std::make_unique<Serve>(seed, exec, tracer);
}

}  // namespace perfbench
