// log_failover: the `log` path. One op is one coord::run_log run at n = 48,
// lambda = 5/2 with 24 client commands, the initial leader (rank 0)
// crashing at t = 5, one rank removed and re-added, and seeded link loss
// (light loss on random links, heavy loss on four links out of rank 1).
// A unit is a round over kPlans loss plans derived from the workload seed,
// so a run's cost does not hinge on one draw; each op must reproduce the
// warm-up report of its plan exactly.
#include <algorithm>
#include <exception>
#include <iostream>
#include <sstream>
#include <vector>

#include "coord/log.hpp"
#include "coord/validator.hpp"
#include "faults/fault_plan.hpp"
#include "support/prng.hpp"
#include "workload.hpp"

namespace perfbench {
namespace {

using namespace postal;
using namespace postal::coord;

constexpr std::uint64_t kN = 48;
constexpr std::uint64_t kCommands = 24;
constexpr std::size_t kPlans = 8;

struct Case {
  FaultPlan plan;
  LogOptions options;
  LogReport reference;  ///< the warm-up report every later op must equal
};

class LogFailover final : public Workload {
 public:
  LogFailover(std::uint64_t seed, Tracer& tracer)
      : seed_(seed),
        params_(kN, Rational(5, 2)),
        run_log_(tracer.intern("coord.run_log")),
        check_log_(tracer.intern("coord.check_log")) {
    SplitMix64 rng(seed);
    for (std::size_t k = 0; k < kPlans; ++k) {
      Case c;
      RandomFaultOptions fopts;
      fopts.crashes = 0;  // the one crash is the leader's, added below
      fopts.loss_p = Rational(1, 5);
      fopts.lossy_links = 24;
      fopts.max_losses = 2;
      c.plan = random_fault_plan(params_, rng.next(), fopts);
      c.plan.crashes.push_back(CrashFault{0, Rational(5)});
      // Rank 1 leads view 1, after the crash. Links out of it that lose
      // half their traffic cut subtrees off that view's PROPOSEs and
      // COMMITs, so later views must heal them by catch-up.
      std::vector<ProcId> cut;
      while (cut.size() < 4) {
        const auto dst = static_cast<ProcId>(2 + rng.next() % (kN - 2));
        if (std::find(cut.begin(), cut.end(), dst) != cut.end()) continue;
        cut.push_back(dst);
        c.plan.losses.push_back(LinkLoss{1, dst, Rational(1, 2), 40});
      }
      c.options.commands = kCommands;
      // Remove one rank other than the leaders of views 0 and 1 around
      // the crash, and re-add it. Both changes land in the first views; a
      // later re-add would stretch the fault-free baseline past the
      // crashed run and hide the recovery.
      const auto victim = static_cast<ProcId>(2 + rng.next() % (kN - 2));
      c.options.reconfig.push_back(ReconfigRequest{victim, Rational(4)});
      c.options.reconfig.push_back(ReconfigRequest{victim, Rational(10)});
      cases_.push_back(std::move(c));
    }
  }

  [[nodiscard]] std::string describe() const override {
    std::ostringstream out;
    out << "log_failover seed=" << seed_ << " n=" << kN
        << " lambda=5/2 commands=" << kCommands << " plans=" << kPlans
        << " crash=0:5";
    for (const Case& c : cases_) {
      out << " reconfig=" << c.options.reconfig[0].rank << ":4,10";
    }
    return out.str();
  }

  UnitResult warm_up() override {
    UnitResult unit{cases_.size(), 0, 0};
    for (Case& c : cases_) {
      try {
        c.reference = run_log(params_, &c.plan, c.options);
        if (!report_ok(c.reference, c.options)) ++unit.failed;
      } catch (const std::exception& e) {
        std::cerr << "log_failover: warm-up threw: " << e.what() << '\n';
        ++unit.failed;
      }
    }
    return unit;
  }

  UnitResult run_unit(Tracer* tracer, Pacer* /*pacer*/) override {
    UnitResult unit{cases_.size(), 0, 0};
    for (std::size_t k = 0; k < cases_.size(); ++k) {
      const Case& c = cases_[k];
      bool ok = false;
      try {
        LogReport report;
        {
          const Span span(tracer, run_log_);
          report = run_log(params_, &c.plan, c.options);
        }
        ok = report_ok(report, c.options) && same_run(report, c.reference);
        if (tracer != nullptr) {
          // run_log judged the run with check_log already; call it again
          // to time the checker alone. It is not part of the op.
          tracer->begin();
          const CoordCheck again = check_log(report, params_, &c.plan);
          unit.excluded_ns += tracer->end(check_log_).duration_ns;
          ok = ok && again.ok && again.violations == report.check.violations;
          record(report);
        }
      } catch (const std::exception& e) {
        std::cerr << "log_failover: op threw: " << e.what() << '\n';
      }
      if (!ok) ++unit.failed;
    }
    return unit;
  }

  [[nodiscard]] LayerValues layer_metrics(const Tracer& tracer) const override {
    if (traced_ops_ == 0) return {};
    const double ops = static_cast<double>(traced_ops_);
    return {
        {"coord.run_log_s", tracer.mean_s(run_log_)},
        {"coord.check_log_s", tracer.mean_s(check_log_)},
        {"coord.msgs_per_slot", msgs_per_slot_ / ops},
        {"coord.views_used", static_cast<double>(views_) / ops},
        {"coord.proposal_repairs", static_cast<double>(proposal_repairs_) / ops},
        {"coord.catchup_commits", static_cast<double>(catchup_commits_) / ops},
        {"coord.lease_expiries", static_cast<double>(lease_expiries_) / ops},
        {"coord.stale_rejects", static_cast<double>(stale_rejects_) / ops},
        {"coord.events", static_cast<double>(events_) / ops},
    };
  }

 private:
  /// The op's exact checks: safety and validation verdicts, a settled run
  /// on the tick path, every client command committed on every live final
  /// member, and a measurable recovery from the leader crash.
  bool report_ok(const LogReport& r, const LogOptions& options) const {
    std::ostringstream why;
    if (!r.check.ok) {
      why << "check_log: " << r.check.summary();
    } else if (!r.validation.ok) {
      why << "validation: " << r.validation.summary();
    } else if (!r.settled) {
      why << "not settled";
    } else if (!r.result.stats.tick_domain || !r.validation.tick_domain) {
      why << "left the tick path";
    } else if (!(r.recovery_time > Rational(0))) {
      why << "recovery_time " << r.recovery_time.str();
    } else if (r.final_members.size() != kN) {
      why << "final members " << r.final_members.size();
    } else {
      for (const ProcId m : r.final_members) {
        if (std::binary_search(r.crashed.begin(), r.crashed.end(), m)) continue;
        const RankLog& rank = r.ranks[m];
        std::vector<std::uint32_t> values;
        for (const SlotDecision& d : rank.slots) {
          if (d.decided && !is_config_value(d.value)) values.push_back(d.value);
        }
        std::sort(values.begin(), values.end());
        bool all = rank.commit_prefix == r.slots && values.size() == kCommands;
        for (std::size_t i = 0; all && i < values.size(); ++i) {
          all = values[i] == options.value_base + i;
        }
        if (!all) {
          why << "rank " << m << " committed " << values.size() << " of "
              << kCommands << " commands";
          break;
        }
      }
      if (why.str().empty()) return true;
    }
    std::cerr << "log_failover: check failed: " << why.str() << '\n';
    return false;
  }

  static bool same_run(const LogReport& r, const LogReport& ref) {
    const bool same = r.counters == ref.counters && r.events == ref.events &&
                      r.ranks == ref.ranks &&
                      r.commit_latency == ref.commit_latency &&
                      r.recovery_time == ref.recovery_time;
    if (!same) std::cerr << "log_failover: run differs from its warm-up\n";
    return same;
  }

  void record(const LogReport& r) {
    ++traced_ops_;
    msgs_per_slot_ += static_cast<double>(r.result.schedule.size()) /
                      static_cast<double>(r.slots);
    views_ += r.views_used + 1ULL;
    proposal_repairs_ += r.counters.proposal_repairs;
    catchup_commits_ += r.counters.catchup_commits;
    lease_expiries_ += r.counters.lease_expiries;
    stale_rejects_ += r.counters.stale_rejects;
    events_ += r.result.stats.events_processed;
  }

  std::uint64_t seed_;
  PostalParams params_;
  std::vector<Case> cases_;
  Tracer::NameId run_log_;
  Tracer::NameId check_log_;
  std::uint64_t traced_ops_ = 0;
  double msgs_per_slot_ = 0.0;
  std::uint64_t views_ = 0;
  std::uint64_t proposal_repairs_ = 0;
  std::uint64_t catchup_commits_ = 0;
  std::uint64_t lease_expiries_ = 0;
  std::uint64_t stale_rejects_ = 0;
  std::uint64_t events_ = 0;
};

}  // namespace

std::unique_ptr<Workload> make_log_failover(std::uint64_t seed, Tracer& tracer) {
  return std::make_unique<LogFailover>(seed, tracer);
}

}  // namespace perfbench
