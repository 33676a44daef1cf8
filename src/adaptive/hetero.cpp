#include "adaptive/hetero.hpp"

#include <algorithm>
#include <optional>

#include "sched/bcast.hpp"
#include "support/interval_set.hpp"
#include "support/prng.hpp"

namespace postal {

HeteroLatency::HeteroLatency(std::uint64_t n, std::vector<Rational> matrix)
    : n_(n), matrix_(std::move(matrix)) {
  POSTAL_REQUIRE(n_ >= 1, "HeteroLatency: need at least one processor");
  POSTAL_REQUIRE(matrix_.size() == n_ * n_,
                 "HeteroLatency: matrix must be n x n (row-major)");
  for (std::uint64_t a = 0; a < n_; ++a) {
    for (std::uint64_t b = 0; b < n_; ++b) {
      if (a == b) continue;
      POSTAL_REQUIRE(matrix_[a * n_ + b] >= Rational(1),
                     "HeteroLatency: off-diagonal latencies must be >= 1");
    }
  }
}

HeteroLatency HeteroLatency::uniform(std::uint64_t n, const Rational& lambda) {
  return HeteroLatency(n, std::vector<Rational>(n * n, lambda));
}

HeteroLatency HeteroLatency::two_level(std::uint64_t n, std::uint64_t cluster,
                                       const Rational& intra, const Rational& inter) {
  POSTAL_REQUIRE(cluster >= 1, "HeteroLatency::two_level: cluster size must be >= 1");
  std::vector<Rational> matrix(n * n, intra);
  for (std::uint64_t a = 0; a < n; ++a) {
    for (std::uint64_t b = 0; b < n; ++b) {
      if (a / cluster != b / cluster) matrix[a * n + b] = inter;
    }
  }
  return HeteroLatency(n, std::move(matrix));
}

HeteroLatency HeteroLatency::random(std::uint64_t n, const Rational& lo,
                                    const Rational& hi, std::uint64_t seed) {
  POSTAL_REQUIRE(Rational(1) <= lo && lo <= hi,
                 "HeteroLatency::random: need 1 <= lo <= hi");
  // Quarter-grid values in [lo, hi], symmetric.
  const std::int64_t steps = ((hi - lo) * Rational(4)).floor();
  Xoshiro256 rng(seed);
  std::vector<Rational> matrix(n * n, lo);
  for (std::uint64_t a = 0; a < n; ++a) {
    for (std::uint64_t b = a + 1; b < n; ++b) {
      const auto k = static_cast<std::int64_t>(
          rng.uniform(0, static_cast<std::uint64_t>(steps)));
      const Rational value = lo + Rational(k, 4);
      matrix[a * n + b] = value;
      matrix[b * n + a] = value;
    }
  }
  return HeteroLatency(n, std::move(matrix));
}

const Rational& HeteroLatency::lambda(ProcId a, ProcId b) const {
  POSTAL_REQUIRE(a < n_ && b < n_, "HeteroLatency::lambda: id out of range");
  POSTAL_REQUIRE(a != b, "HeteroLatency::lambda: no self-latency");
  return matrix_[a * n_ + b];
}

Rational HeteroLatency::max_lambda() const {
  Rational best(1);
  for (std::uint64_t a = 0; a < n_; ++a) {
    for (std::uint64_t b = 0; b < n_; ++b) {
      if (a != b) best = rmax(best, matrix_[a * n_ + b]);
    }
  }
  return best;
}

HeteroSimReport simulate_hetero(const Schedule& schedule, const HeteroLatency& lat) {
  const std::uint64_t n = lat.n();
  HeteroSimReport report;
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
    const Rational arrive = e.t + lat.lambda(e.src, e.dst);
    if (recv_port[e.dst].insert(arrive - Rational(1), arrive)) {
      violate(violation_prefix(e) + "receive-port conflict");
    }
    auto& dst = informed[e.dst];
    if (!dst.has_value() || arrive < *dst) dst = arrive;
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

Schedule hetero_greedy_broadcast(const HeteroLatency& lat) {
  const std::uint64_t n = lat.n();
  Schedule schedule;
  if (n == 1) return schedule;

  std::vector<std::optional<Rational>> free_at(n);  // informed -> next free
  free_at[0] = Rational(0);
  std::vector<bool> informed(n, false);
  informed[0] = true;
  std::uint64_t remaining = n - 1;

  while (remaining > 0) {
    // Pick the (sender, target) pair with the earliest possible arrival;
    // break ties toward lower ids for determinism.
    std::optional<Rational> best_arrival;
    ProcId best_s = 0;
    ProcId best_q = 0;
    for (ProcId s = 0; s < n; ++s) {
      if (!free_at[s].has_value()) continue;
      for (ProcId q = 0; q < n; ++q) {
        if (informed[q]) continue;
        const Rational arrival = *free_at[s] + lat.lambda(s, q);
        if (!best_arrival.has_value() || arrival < *best_arrival) {
          best_arrival = arrival;
          best_s = s;
          best_q = q;
        }
      }
    }
    POSTAL_CHECK(best_arrival.has_value());
    schedule.add(best_s, best_q, /*msg=*/0, *free_at[best_s]);
    free_at[best_s] = *free_at[best_s] + Rational(1);
    free_at[best_q] = *best_arrival;
    informed[best_q] = true;
    --remaining;
  }
  schedule.sort();
  return schedule;
}

Schedule hetero_conservative_broadcast(const HeteroLatency& lat) {
  // Plan a plain generalized Fibonacci tree at the worst-case latency;
  // running it under the true matrix only makes arrivals earlier, and the
  // planned send times remain valid.
  return bcast_schedule(PostalParams(lat.n(), lat.max_lambda()));
}

}  // namespace postal
