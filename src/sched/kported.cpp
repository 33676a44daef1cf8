#include "sched/kported.hpp"

#include <algorithm>
#include <optional>
#include <queue>
#include <string>

#include "support/interval_set.hpp"

namespace postal {

GenFibK::GenFibK(Rational lambda, std::uint64_t k) : lambda_(std::move(lambda)), k_(k) {
  POSTAL_REQUIRE(lambda_ >= Rational(1), "GenFibK: lambda must be >= 1");
  POSTAL_REQUIRE(k_ >= 1, "GenFibK: k must be >= 1");
  p_ = lambda_.num();
  q_ = lambda_.den();
  memo_.assign(static_cast<std::size_t>(p_), 1);
}

std::uint64_t GenFibK::F(const Rational& t) {
  POSTAL_REQUIRE(t >= Rational(0), "GenFibK::F: t must be >= 0");
  const std::int64_t idx = (t * Rational(q_)).floor();
  while (static_cast<std::int64_t>(memo_.size()) <= idx) {
    const auto i = static_cast<std::int64_t>(memo_.size());
    memo_.push_back(sat_add(memo_[static_cast<std::size_t>(i - q_)],
                            sat_mul(k_, memo_[static_cast<std::size_t>(i - p_)])));
  }
  return memo_[static_cast<std::size_t>(idx)];
}

Rational GenFibK::f(std::uint64_t n) {
  POSTAL_REQUIRE(n >= 1, "GenFibK::f: n must be >= 1");
  POSTAL_REQUIRE(n < kSaturated, "GenFibK::f: n exceeds the saturation cap");
  std::int64_t idx = 0;
  while (F(Rational(idx, q_)) < n) ++idx;
  return Rational(idx, q_);
}

namespace {

void kported_emit(Schedule& schedule, GenFibK& fib, ProcId base, std::uint64_t count,
                  const Rational& start) {
  ProcId holder = base;
  std::uint64_t remaining_range = count;
  Rational now = start;
  while (remaining_range >= 2) {
    const Rational idx = fib.f(remaining_range);
    POSTAL_CHECK(idx >= fib.lambda());
    const std::uint64_t j = fib.F(idx - Rational(1));
    POSTAL_CHECK(j >= 1 && j <= remaining_range - 1);
    const std::uint64_t chunk_cap = fib.F(idx - fib.lambda());
    std::uint64_t to_place = remaining_range - j;
    ProcId offset = holder + static_cast<ProcId>(j);
    // Up to k simultaneous sends, each seeding a sub-range of size at most
    // F(f - lambda); the recurrence guarantees k chunks suffice.
    for (std::uint64_t port = 0; port < fib.k() && to_place > 0; ++port) {
      const std::uint64_t c = std::min<std::uint64_t>(chunk_cap, to_place);
      schedule.add(holder, offset, /*msg=*/0, now);
      if (c >= 2) kported_emit(schedule, fib, offset, c, now + fib.lambda());
      offset += static_cast<ProcId>(c);
      to_place -= c;
    }
    POSTAL_CHECK(to_place == 0);
    remaining_range = j;
    now += Rational(1);
  }
}

}  // namespace

Schedule kported_bcast_schedule(const PostalParams& params, std::uint64_t k) {
  GenFibK fib(params.lambda(), k);
  Schedule schedule;
  if (params.n() == 1) return schedule;
  kported_emit(schedule, fib, 0, params.n(), Rational(0));
  schedule.sort();
  return schedule;
}

Rational predict_kported_bcast(const PostalParams& params, std::uint64_t k) {
  if (params.n() == 1) return Rational(0);
  GenFibK fib(params.lambda(), k);
  return fib.f(params.n());
}

Rational kported_optimal_greedy(const PostalParams& params, std::uint64_t k) {
  POSTAL_REQUIRE(k >= 1, "kported_optimal_greedy: k must be >= 1");
  const std::uint64_t n = params.n();
  if (n == 1) return Rational(0);
  // Candidate inform times. A new processor informed at t opens k port
  // streams whose first candidates land at t + lambda; popping a candidate
  // also materializes the next candidate of its own stream (+1).
  std::priority_queue<Rational, std::vector<Rational>, std::greater<>> heap;
  for (std::uint64_t port = 0; port < k; ++port) heap.push(params.lambda());
  std::uint64_t informed = 1;
  Rational last(0);
  while (informed < n) {
    POSTAL_CHECK(!heap.empty());
    const Rational t = heap.top();
    heap.pop();
    ++informed;
    last = t;
    heap.push(t + Rational(1));
    for (std::uint64_t port = 0; port < k; ++port) heap.push(t + params.lambda());
  }
  return last;
}

KPortedReport validate_kported(const Schedule& schedule, const PostalParams& params,
                               std::uint64_t k) {
  POSTAL_REQUIRE(k >= 1, "validate_kported: k must be >= 1");
  const std::uint64_t n = params.n();
  const Rational& lambda = params.lambda();
  KPortedReport report;
  auto violate = [&report](const std::string& text) {
    report.violations.push_back(text);
  };

  std::vector<SendEvent> events = schedule.events();
  std::stable_sort(events.begin(), events.end(),
                   [](const SendEvent& a, const SendEvent& b) { return a.t < b.t; });

  std::vector<std::vector<Rational>> send_times(n);
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
      violate(violation_prefix(e) + "sender not informed");
    }
    // k-port rule: at most k send windows [t, t+1) may overlap. Since
    // events come in time order, count earlier sends still open at e.t.
    auto& mine = send_times[e.src];
    std::uint64_t open = 0;
    for (auto it = mine.rbegin(); it != mine.rend(); ++it) {
      if (*it + Rational(1) > e.t) {
        ++open;
      } else {
        break;  // times are nondecreasing; older windows are closed
      }
    }
    if (open >= k) violate(violation_prefix(e) + "more than k overlapping sends");
    mine.push_back(e.t);
    const Rational arrive = e.t + lambda;
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

}  // namespace postal
