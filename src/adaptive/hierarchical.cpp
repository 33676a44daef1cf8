#include "adaptive/hierarchical.hpp"

#include <algorithm>
#include <optional>

#include "model/genfib.hpp"
#include "sched/bcast.hpp"
#include "support/interval_set.hpp"

namespace postal {

void TwoLevelParams::validate() const {
  POSTAL_REQUIRE(n >= 1, "TwoLevelParams: n must be >= 1");
  POSTAL_REQUIRE(cluster_size >= 1, "TwoLevelParams: cluster_size must be >= 1");
  POSTAL_REQUIRE(lambda_intra >= Rational(1), "TwoLevelParams: lambda_intra >= 1");
  POSTAL_REQUIRE(lambda_inter >= lambda_intra,
                 "TwoLevelParams: lambda_inter must be >= lambda_intra");
}

std::uint64_t TwoLevelParams::cluster_of(ProcId p) const { return p / cluster_size; }

const Rational& TwoLevelParams::lambda(ProcId a, ProcId b) const {
  return cluster_of(a) == cluster_of(b) ? lambda_intra : lambda_inter;
}

std::uint64_t TwoLevelParams::clusters() const {
  return (n + cluster_size - 1) / cluster_size;
}

Schedule hierarchical_flat_schedule(const TwoLevelParams& params) {
  params.validate();
  return bcast_schedule(PostalParams(params.n, params.lambda_inter));
}

Schedule hierarchical_two_level_schedule(const TwoLevelParams& params) {
  params.validate();
  Schedule schedule;
  const std::uint64_t K = params.clusters();
  const std::uint64_t c = params.cluster_size;

  // Phase 1: BCAST over the K cluster leaders at lambda_inter, with virtual
  // leader i mapped onto processor i*c.
  std::vector<Rational> inform(K, Rational(0));      // leader inform times
  std::vector<Rational> port_free(K, Rational(0));   // after phase-1 sends
  if (K >= 2) {
    const Schedule leaders = bcast_schedule(PostalParams(K, params.lambda_inter));
    for (const SendEvent& e : leaders.events()) {
      schedule.add(static_cast<ProcId>(e.src * c), static_cast<ProcId>(e.dst * c),
                   /*msg=*/0, e.t);
      inform[e.dst] = e.t + params.lambda_inter;
      port_free[e.src] = rmax(port_free[e.src], e.t + Rational(1));
    }
  }

  // Phase 2: every leader broadcasts inside its own cluster at lambda_intra,
  // starting when both it is informed and its output port has drained the
  // phase-1 sends.
  GenFib intra_fib(params.lambda_intra);
  for (std::uint64_t i = 0; i < K; ++i) {
    const std::uint64_t lo = i * c;
    const std::uint64_t hi = std::min<std::uint64_t>(lo + c, params.n);
    const Rational start = rmax(inform[i], port_free[i]);
    bcast_emit(schedule, intra_fib, static_cast<ProcId>(lo), hi - lo, start,
               /*msg=*/0);
  }
  schedule.sort();
  return schedule;
}

HeteroReport simulate_two_level(const Schedule& schedule, const TwoLevelParams& params) {
  params.validate();
  const std::uint64_t n = params.n;
  HeteroReport report;
  auto violate = [&report](const std::string& text) {
    report.violations.push_back(text);
  };

  std::vector<SendEvent> events = schedule.events();
  std::stable_sort(events.begin(), events.end(),
                   [](const SendEvent& a, const SendEvent& b) { return a.t < b.t; });

  std::vector<IntervalSet> send_port(n);
  std::vector<IntervalSet> recv_port(n);
  std::vector<std::optional<Rational>> informed(n);
  informed[0] = Rational(0);

  for (const SendEvent& e : events) {
    if (e.src >= n || e.dst >= n) {
      violate(violation_prefix(e) + "processor id out of range");
      continue;
    }
    const auto& held = informed[e.src];
    if (!held.has_value() || e.t < *held) {
      violate(violation_prefix(e) + "sender not informed yet");
    }
    if (send_port[e.src].insert(e.t, e.t + Rational(1))) {
      violate(violation_prefix(e) + "send-port conflict");
    }
    const Rational arrive = e.t + params.lambda(e.src, e.dst);
    if (recv_port[e.dst].insert(arrive - Rational(1), arrive)) {
      violate(violation_prefix(e) + "receive-port conflict");
    }
    auto& dst_informed = informed[e.dst];
    if (!dst_informed.has_value() || arrive < *dst_informed) dst_informed = arrive;
    report.completion = rmax(report.completion, arrive);
  }
  for (ProcId p = 0; p < n; ++p) {
    if (!informed[p].has_value()) {
      // Appended, not "p" + ...: GCC 12 at -O3 reports a false
      // -Werror=restrict inside operator+ on a temporary string.
      violate(std::string("p").append(std::to_string(p)).append(" never informed"));
    }
  }
  report.ok = report.violations.empty();
  return report;
}

}  // namespace postal
