#include "faults/fault_plan.hpp"

#include <algorithm>
#include <functional>
#include <initializer_list>
#include <sstream>
#include <utility>

#include "model/genfib.hpp"
#include "support/error.hpp"
#include "support/parse.hpp"
#include "support/prng.hpp"

namespace postal {

void FaultPlan::validate(std::uint64_t n) const {
  for (const CrashFault& c : crashes) {
    POSTAL_REQUIRE(c.proc < n, "FaultPlan: crash processor out of range");
    POSTAL_REQUIRE(c.time >= Rational(0), "FaultPlan: crash time must be >= 0");
  }
  for (const LinkLoss& l : losses) {
    POSTAL_REQUIRE(l.src < n && l.dst < n, "FaultPlan: loss link out of range");
    POSTAL_REQUIRE(l.src != l.dst, "FaultPlan: loss link src == dst");
    POSTAL_REQUIRE(l.p >= Rational(0) && l.p <= Rational(1),
                   "FaultPlan: loss probability must be in [0, 1]");
  }
  for (const LatencySpike& s : spikes) {
    POSTAL_REQUIRE(s.from >= Rational(0) && s.from < s.until,
                   "FaultPlan: spike window must satisfy 0 <= from < until");
    POSTAL_REQUIRE(s.extra >= Rational(0), "FaultPlan: spike extra must be >= 0");
  }
}

std::vector<ProcId> crashed_ranks(std::uint64_t n, const FaultPlan* plan) {
  std::vector<ProcId> ranks;
  if (plan == nullptr) return ranks;
  for (const CrashFault& c : plan->crashes) {
    if (c.proc < n) ranks.push_back(c.proc);
  }
  std::sort(ranks.begin(), ranks.end());
  ranks.erase(std::unique(ranks.begin(), ranks.end()), ranks.end());
  return ranks;
}

namespace {

void append_rational(std::ostringstream& oss, const Rational& r) {
  oss << '"' << r.str() << '"';
}

}  // namespace

std::string fault_plan_to_json(const FaultPlan& plan) {
  std::ostringstream oss;
  oss << "{\"seed\":" << plan.seed << ",\"crashes\":[";
  for (std::size_t i = 0; i < plan.crashes.size(); ++i) {
    if (i) oss << ',';
    oss << "{\"proc\":" << plan.crashes[i].proc << ",\"time\":";
    append_rational(oss, plan.crashes[i].time);
    oss << '}';
  }
  oss << "],\"losses\":[";
  for (std::size_t i = 0; i < plan.losses.size(); ++i) {
    if (i) oss << ',';
    oss << "{\"src\":" << plan.losses[i].src << ",\"dst\":" << plan.losses[i].dst
        << ",\"p\":";
    append_rational(oss, plan.losses[i].p);
    oss << ",\"max_losses\":" << plan.losses[i].max_losses << '}';
  }
  oss << "],\"spikes\":[";
  for (std::size_t i = 0; i < plan.spikes.size(); ++i) {
    if (i) oss << ',';
    oss << "{\"from\":";
    append_rational(oss, plan.spikes[i].from);
    oss << ",\"until\":";
    append_rational(oss, plan.spikes[i].until);
    oss << ",\"extra\":";
    append_rational(oss, plan.spikes[i].extra);
    oss << '}';
  }
  oss << "]}";
  return oss.str();
}

namespace {

/// Minimal recursive-descent parser over the exact shape fault_plan_to_json
/// emits (plus arbitrary whitespace). Not a general JSON parser on purpose:
/// unknown keys are errors, so a typo'd plan file fails loudly instead of
/// silently injecting nothing.
class PlanParser {
 public:
  explicit PlanParser(const std::string& text) : text_(text) {}

  FaultPlan parse() {
    FaultPlan plan;
    expect('{');
    bool first = true;
    while (!try_consume('}')) {
      if (!first) expect(',');
      first = false;
      const std::string key = parse_string();
      expect(':');
      if (key == "seed") {
        plan.seed = parse_uint();
      } else if (key == "crashes") {
        parse_array([&] {
          CrashFault c;
          parse_object({{"proc", [&] { c.proc = parse_proc(); }},
                        {"time", [&] { c.time = parse_rational(); }}});
          plan.crashes.push_back(c);
        });
      } else if (key == "losses") {
        parse_array([&] {
          LinkLoss l;
          parse_object({{"src", [&] { l.src = parse_proc(); }},
                        {"dst", [&] { l.dst = parse_proc(); }},
                        {"p", [&] { l.p = parse_rational(); }},
                        {"max_losses", [&] { l.max_losses = parse_uint(); }}});
          plan.losses.push_back(l);
        });
      } else if (key == "spikes") {
        parse_array([&] {
          LatencySpike s;
          parse_object({{"from", [&] { s.from = parse_rational(); }},
                        {"until", [&] { s.until = parse_rational(); }},
                        {"extra", [&] { s.extra = parse_rational(); }}});
          plan.spikes.push_back(s);
        });
      } else {
        throw InvalidArgument("parse_fault_plan: unknown key '" + key + "'");
      }
    }
    skip_ws();
    POSTAL_REQUIRE(pos_ == text_.size(),
                   "parse_fault_plan: trailing characters after the plan object");
    return plan;
  }

 private:
  using Field = std::pair<std::string, std::function<void()>>;

  void skip_ws() {
    while (pos_ < text_.size() && (text_[pos_] == ' ' || text_[pos_] == '\t' ||
                                   text_[pos_] == '\n' || text_[pos_] == '\r')) {
      ++pos_;
    }
  }

  void expect(char c) {
    skip_ws();
    if (pos_ >= text_.size() || text_[pos_] != c) {
      throw InvalidArgument(std::string("parse_fault_plan: expected '") + c +
                            "' at offset " + std::to_string(pos_));
    }
    ++pos_;
  }

  bool try_consume(char c) {
    skip_ws();
    if (pos_ < text_.size() && text_[pos_] == c) {
      ++pos_;
      return true;
    }
    return false;
  }

  std::string parse_string() {
    expect('"');
    std::string out;
    while (pos_ < text_.size() && text_[pos_] != '"') out.push_back(text_[pos_++]);
    expect('"');
    return out;
  }

  std::uint64_t parse_uint() {
    skip_ws();
    const std::size_t start = pos_;
    while (pos_ < text_.size() && text_[pos_] >= '0' && text_[pos_] <= '9') ++pos_;
    POSTAL_REQUIRE(pos_ > start, "parse_fault_plan: expected an unsigned integer");
    return postal::parse_uint(text_.substr(start, pos_ - start),
                              "parse_fault_plan: unsigned integer");
  }

  ProcId parse_proc() {
    const std::uint64_t v = parse_uint();
    POSTAL_REQUIRE(v <= 0xffffffffULL, "parse_fault_plan: processor id too large");
    return static_cast<ProcId>(v);
  }

  Rational parse_rational() { return Rational::parse(parse_string()); }

  template <typename Fn>
  void parse_array(Fn element) {
    expect('[');
    bool first = true;
    while (!try_consume(']')) {
      if (!first) expect(',');
      first = false;
      element();
    }
  }

  void parse_object(std::initializer_list<Field> fields) {
    expect('{');
    bool first = true;
    while (!try_consume('}')) {
      if (!first) expect(',');
      first = false;
      const std::string key = parse_string();
      expect(':');
      const auto it = std::find_if(fields.begin(), fields.end(),
                                   [&](const Field& f) { return f.first == key; });
      if (it == fields.end()) {
        throw InvalidArgument("parse_fault_plan: unknown key '" + key + "'");
      }
      it->second();
    }
  }

  const std::string& text_;
  std::size_t pos_ = 0;
};

}  // namespace

FaultPlan parse_fault_plan(const std::string& json) {
  return PlanParser(json).parse();
}

FaultPlan random_fault_plan(const PostalParams& params, std::uint64_t seed,
                            const RandomFaultOptions& options) {
  const std::uint64_t n = params.n();
  FaultPlan plan;
  plan.seed = seed;
  Xoshiro256 rng(seed ^ 0xfa010755c0de0000ULL);

  // Crash times are drawn on the lambda grid inside [0, window] so they
  // interleave exactly with the broadcast's own event times. The default
  // window is the fault-free completion time f_lambda(n): crashing after
  // completion is a no-op, so that's where the interesting scenarios live.
  Rational window = options.crash_window;
  if (window == Rational(0)) {
    GenFib fib(params.lambda());
    window = n >= 2 ? fib.f(n) : Rational(1);
  }
  const std::int64_t q = params.lambda().den();
  const std::uint64_t grid_steps =
      static_cast<std::uint64_t>((window * Rational(q)).floor());

  const std::uint64_t crash_count = std::min<std::uint64_t>(
      options.crashes, n > 1 ? n - 1 : 0);  // never crash the origin
  std::vector<bool> crashed(n, false);
  for (std::uint64_t i = 0; i < crash_count; ++i) {
    ProcId victim;
    do {
      victim = static_cast<ProcId>(rng.uniform(1, n - 1));
    } while (crashed[victim]);
    crashed[victim] = true;
    const auto k = static_cast<std::int64_t>(rng.uniform(0, grid_steps));
    plan.crashes.push_back(CrashFault{victim, Rational(k, q)});
  }

  for (std::uint64_t i = 0; i < options.lossy_links && n >= 2; ++i) {
    const auto src = static_cast<ProcId>(rng.uniform(0, n - 1));
    auto dst = static_cast<ProcId>(rng.uniform(0, n - 2));
    if (dst >= src) ++dst;
    plan.losses.push_back(LinkLoss{src, dst, options.loss_p, options.max_losses});
  }

  for (std::uint64_t i = 0; i < options.spikes; ++i) {
    const auto from_k = static_cast<std::int64_t>(rng.uniform(0, grid_steps));
    const auto len_k = static_cast<std::int64_t>(
        rng.uniform(1, std::max<std::uint64_t>(grid_steps, 1)));
    const auto extra_k = static_cast<std::int64_t>(
        rng.uniform(1, 4 * static_cast<std::uint64_t>(q)));
    plan.spikes.push_back(LatencySpike{Rational(from_k, q),
                                       Rational(from_k + len_k, q),
                                       Rational(extra_k, q)});
  }

  std::sort(plan.crashes.begin(), plan.crashes.end(),
            [](const CrashFault& a, const CrashFault& b) {
              if (a.time != b.time) return a.time < b.time;
              return a.proc < b.proc;
            });
  plan.validate(n);
  return plan;
}

}  // namespace postal
