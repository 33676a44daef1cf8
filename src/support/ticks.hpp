// The tick domain: integer time at resolution 1/q (docs/PERFORMANCE.md).
//
// With lambda = p/q, every event time the paper's algorithms produce is an
// integer multiple of 1/q (the exact-equality property the Theorem 6 and
// Lemma 10/12/14/16 tests rely on). A hot loop can therefore carry its
// times as int64 *ticks* -- plain adds and compares instead of Rational's
// gcd-normalizing, overflow-checked arithmetic -- and convert back to
// Rational only at the boundary. TickDomain is that boundary: a checked,
// exact, two-way mapping between Rational time and tick counts.
//
// The conversion never lies and never wraps: to_ticks() reports
// unrepresentable (nullopt) when the value is not a multiple of 1/q or the
// tick count would not fit, and the caller falls back to the Rational
// reference path. Because Rational is canonical (reduced, positive
// denominator), to_rational(to_ticks(r)) == r exactly -- including the
// str() rendering -- which is what lets tick-domain runs be byte-identical
// to Rational runs in the differential gates.
//
// The tick domain is an internal, per-run representation. Rational remains
// the only time type in public APIs; TimePath is the one knob simulators
// expose (kAuto = take the fast path when representable, kRational = force
// the reference path, used by the differential tests and benches).
#pragma once

#include <cstdint>
#include <limits>
#include <optional>

#include "support/rational.hpp"

namespace postal {

/// Integer time in units of 1/q.
using Tick = std::int64_t;

/// Per-run time representation choice (docs/PERFORMANCE.md).
enum class TimePath : std::uint8_t {
  kAuto,      ///< tick fast path when exactly representable, else Rational
  kRational,  ///< always the Rational reference path
};

/// The mapping between Rational time and int64 ticks at resolution 1/q.
class TickDomain {
 public:
  /// Resolution denominator; ticks measure multiples of 1/q. q >= 1.
  explicit TickDomain(std::int64_t q) : q_(q) {
    POSTAL_REQUIRE(q >= 1, "TickDomain: resolution denominator must be >= 1");
  }

  [[nodiscard]] std::int64_t q() const noexcept { return q_; }

  /// Exact conversion to ticks: r == to_ticks(r) / q. Returns nullopt when
  /// r is not a multiple of 1/q or the count overflows int64 -- the caller
  /// must then take the Rational path (never an approximation, never UB).
  [[nodiscard]] std::optional<Tick> to_ticks(const Rational& r) const noexcept {
    if (q_ % r.den() != 0) return std::nullopt;
    Tick out = 0;
    if (__builtin_mul_overflow(r.num(), q_ / r.den(), &out)) return std::nullopt;
    return out;
  }

  /// Exact conversion back; always succeeds (Rational reduces t/q_
  /// canonically, so round trips reproduce the original value and string).
  [[nodiscard]] Rational to_rational(Tick t) const { return Rational(t, q_); }

  /// Smallest resolution representing both multiples of 1/q and `r`
  /// exactly: lcm(q, r.den()). Probes fold every time a run can encounter
  /// through this; nullopt (lcm overflows) means no common grid exists and
  /// the run must stay on the Rational path.
  [[nodiscard]] static std::optional<std::int64_t> fold_denominator(
      std::int64_t q, const Rational& r) noexcept;

 private:
  std::int64_t q_;
};

/// Tick -> Rational at resolution 1/q, remembering the last tick it
/// converted. An event loop converts the same tick many times in a row
/// (every handler running at one tick), and each fresh conversion pays
/// Rational's gcd normalization. Returns by value: one expression may
/// convert two different ticks.
class TickRationalMemo {
 public:
  /// Start a run at resolution 1/q; forgets the remembered tick.
  void reset(std::int64_t q) noexcept {
    q_ = q;
    tick_ = std::numeric_limits<Tick>::min();
  }

  [[nodiscard]] Rational operator()(Tick t) {
    if (t != tick_) {
      tick_ = t;
      value_ = Rational(t, q_);
    }
    return value_;
  }

 private:
  std::int64_t q_ = 1;
  Tick tick_ = std::numeric_limits<Tick>::min();
  Rational value_;
};

}  // namespace postal
