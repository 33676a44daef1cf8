#include "svc/workload.hpp"

#include <limits>
#include <numeric>
#include <sstream>

#include "support/error.hpp"
#include "support/parse.hpp"
#include "support/ticks.hpp"

namespace postal::svc {

namespace {

constexpr std::int64_t kMaxTick = std::int64_t{1} << 62;

std::vector<std::string> split(const std::string& text, char sep) {
  std::vector<std::string> out;
  std::size_t start = 0;
  while (true) {
    const std::size_t pos = text.find(sep, start);
    if (pos == std::string::npos) {
      out.push_back(text.substr(start));
      return out;
    }
    out.push_back(text.substr(start, pos - start));
    start = pos + 1;
  }
}

std::int64_t parse_i64(const std::string& text, const std::string& what) {
  return static_cast<std::int64_t>(
      parse_uint(text, "WorkloadSpec: " + what, 0,
                 std::numeric_limits<std::int64_t>::max()));
}

MixEntry parse_mix_entry(const std::string& text) {
  MixEntry entry;
  bool saw_w = false;
  bool saw_n = false;
  bool saw_l = false;
  bool saw_m = false;
  for (const auto& field : split(text, ':')) {
    if (field.size() < 2) {
      throw InvalidArgument("WorkloadSpec: bad mix field '" + field + "'");
    }
    const std::string value = field.substr(1);
    switch (field[0]) {
      case 'w':
        entry.weight = parse_uint(value, "WorkloadSpec: mix weight");
        saw_w = true;
        break;
      case 'n':
        entry.n = parse_uint(value, "WorkloadSpec: mix n");
        saw_n = true;
        break;
      case 'l':
        entry.lambda = Rational::parse(value);
        saw_l = true;
        break;
      case 'm':
        entry.m = parse_uint(value, "WorkloadSpec: mix m");
        saw_m = true;
        break;
      default:
        throw InvalidArgument("WorkloadSpec: unknown mix field '" + field + "'");
    }
  }
  if (!saw_w || !saw_n || !saw_l || !saw_m) {
    throw InvalidArgument("WorkloadSpec: mix entry '" + text +
                          "' must name w, n, l, and m");
  }
  return entry;
}

}  // namespace

void WorkloadSpec::validate() const {
  if (grid < 1) throw InvalidArgument("WorkloadSpec: grid must be >= 1");
  if (rate <= Rational(0)) throw InvalidArgument("WorkloadSpec: rate must be > 0");
  if (rate > Rational(grid)) {
    throw InvalidArgument(
        "WorkloadSpec: rate must be <= grid (per-tick probability <= 1); got rate " +
        rate.str() + " on grid " + std::to_string(grid));
  }
  if (arrivals == ArrivalKind::kOnOff) {
    if (on_ticks < 1) throw InvalidArgument("WorkloadSpec: on_ticks must be >= 1");
    if (off_ticks < 0) throw InvalidArgument("WorkloadSpec: off_ticks must be >= 0");
    if (on_ticks > kMaxTick - off_ticks) {
      throw InvalidArgument("WorkloadSpec: on_ticks + off_ticks overflows");
    }
  }
  if (mix.empty()) throw InvalidArgument("WorkloadSpec: mix must be nonempty");
  std::uint64_t total = 0;
  for (const auto& entry : mix) {
    if (entry.weight < 1) {
      throw InvalidArgument("WorkloadSpec: mix weight must be >= 1");
    }
    if (entry.n < 1) throw InvalidArgument("WorkloadSpec: mix n must be >= 1");
    if (entry.lambda < Rational(1)) {
      throw InvalidArgument("WorkloadSpec: mix lambda must be >= 1");
    }
    if (entry.m < 1) throw InvalidArgument("WorkloadSpec: mix m must be >= 1");
    if (total > std::numeric_limits<std::uint64_t>::max() - entry.weight) {
      throw InvalidArgument("WorkloadSpec: mix weights overflow");
    }
    total += entry.weight;
  }
}

std::string WorkloadSpec::to_string() const {
  std::ostringstream os;
  os << (arrivals == ArrivalKind::kPoisson ? "poisson" : "onoff");
  os << ";grid=" << grid << ";rate=" << rate.str();
  if (arrivals == ArrivalKind::kOnOff) {
    os << ";on=" << on_ticks << ";off=" << off_ticks;
  }
  os << ";jobs=" << jobs << ";mix=";
  for (std::size_t i = 0; i < mix.size(); ++i) {
    if (i > 0) os << '|';
    os << 'w' << mix[i].weight << ":n" << mix[i].n << ":l" << mix[i].lambda.str()
       << ":m" << mix[i].m;
  }
  return os.str();
}

WorkloadSpec WorkloadSpec::parse(const std::string& text) {
  const auto fields = split(text, ';');
  WorkloadSpec spec;
  bool saw_phase = false;
  bool saw_mix = false;
  if (fields[0] == "poisson") {
    spec.arrivals = ArrivalKind::kPoisson;
  } else if (fields[0] == "onoff") {
    spec.arrivals = ArrivalKind::kOnOff;
  } else {
    throw InvalidArgument("WorkloadSpec: unknown arrival kind '" + fields[0] + "'");
  }
  for (std::size_t i = 1; i < fields.size(); ++i) {
    const std::size_t eq = fields[i].find('=');
    if (eq == std::string::npos) {
      throw InvalidArgument("WorkloadSpec: field '" + fields[i] + "' is not key=value");
    }
    const std::string key = fields[i].substr(0, eq);
    const std::string value = fields[i].substr(eq + 1);
    if (key == "grid") {
      spec.grid = parse_i64(value, "grid");
    } else if (key == "rate") {
      spec.rate = Rational::parse(value);
    } else if (key == "on") {
      spec.on_ticks = parse_i64(value, "on");
      saw_phase = true;
    } else if (key == "off") {
      spec.off_ticks = parse_i64(value, "off");
      saw_phase = true;
    } else if (key == "jobs") {
      spec.jobs = parse_uint(value, "WorkloadSpec: jobs");
    } else if (key == "mix") {
      saw_mix = true;
      spec.mix.clear();
      for (const auto& entry : split(value, '|')) {
        spec.mix.push_back(parse_mix_entry(entry));
      }
    } else {
      throw InvalidArgument("WorkloadSpec: unknown key '" + key + "'");
    }
  }
  // on/off would be silently dropped by to_string() for poisson specs,
  // breaking the parse(to_string()) round trip -- reject rather than drift.
  if (saw_phase && spec.arrivals == ArrivalKind::kPoisson) {
    throw InvalidArgument("WorkloadSpec: on/off apply only to onoff arrivals");
  }
  // The canonical form always names the mix; accepting its absence would
  // let a silently-default spec masquerade as an explicit one.
  if (!saw_mix) throw InvalidArgument("WorkloadSpec: missing mix");
  spec.validate();
  return spec;
}

std::optional<std::int64_t> WorkloadSpec::sojourn_grid() const {
  std::int64_t q = grid;
  for (const auto& entry : mix) {
    const auto folded = TickDomain::fold_denominator(q, entry.lambda);
    if (!folded) return std::nullopt;
    q = *folded;
  }
  return q;
}

WorkloadGenerator::WorkloadGenerator(WorkloadSpec spec, std::uint64_t seed)
    : spec_(std::move(spec)), seed_(seed), rng_(seed) {
  spec_.validate();
  // p = rate/grid as a reduced fraction; validate() guarantees p <= 1.
  const Rational p = spec_.rate / Rational(spec_.grid);
  accept_num_ = static_cast<std::uint64_t>(p.num());
  accept_den_ = static_cast<std::uint64_t>(p.den());
  for (const auto& entry : spec_.mix) weight_total_ += entry.weight;
}

bool WorkloadGenerator::tick_active(std::int64_t tick) const noexcept {
  if (spec_.arrivals == ArrivalKind::kPoisson) return true;
  const std::int64_t period = spec_.on_ticks + spec_.off_ticks;
  return (tick - 1) % period < spec_.on_ticks;  // ticks start at 1, phase ON first
}

bool WorkloadGenerator::bernoulli() {
  // Accept iff x/2^64 < num/den, decided exactly: x * den < num * 2^64.
  const std::uint64_t x = rng_();
  __extension__ using u128 = unsigned __int128;
  return static_cast<u128>(x) * accept_den_ < (static_cast<u128>(accept_num_) << 64);
}

const MixEntry& WorkloadGenerator::draw_mix() {
  if (spec_.mix.size() == 1) return spec_.mix.front();
  std::uint64_t pick = rng_.uniform(0, weight_total_ - 1);
  for (const auto& entry : spec_.mix) {
    if (pick < entry.weight) return entry;
    pick -= entry.weight;
  }
  return spec_.mix.back();  // unreachable: pick < weight_total_
}

std::optional<Job> WorkloadGenerator::next() {
  if (emitted_ >= spec_.jobs) return std::nullopt;
  while (true) {
    if (tick_ >= kMaxTick) {
      throw LogicError("WorkloadGenerator: arrival tick counter overflow");
    }
    ++tick_;
    if (!tick_active(tick_)) continue;
    if (!bernoulli()) continue;
    const MixEntry& shape = draw_mix();
    Job job;
    job.id = emitted_;
    job.arrival = Rational(tick_, spec_.grid);
    job.n = shape.n;
    job.lambda = shape.lambda;
    job.m = shape.m;
    ++emitted_;
    return job;
  }
}

}  // namespace postal::svc
