// Disjoint half-open interval tracking over rational time.
//
// The extension models' shared checker (sched/port_check.hpp) keeps each
// processor port as a set of busy intervals, e.g. [t, t+1) for a send. The
// "simultaneous I/O" rule says intervals on the *same* port are disjoint;
// an overlapping insert is the violation the checker reports. (The postal
// validator needs only the last window per port: sim/validator.cpp.)
//
// Intervals are half-open [lo, hi): a send finishing at time x and another
// starting at exactly x do not conflict, matching the paper's timing (e.g.
// a processor starts forwarding a message at the same instant its receive
// completes).
#pragma once

#include <map>
#include <optional>

#include "support/rational.hpp"

namespace postal {

/// A set of pairwise-disjoint half-open intervals [lo, hi) over Rational time.
class IntervalSet {
 public:
  /// One half-open busy interval.
  struct Interval {
    Rational lo;
    Rational hi;
  };

  /// Try to insert [lo, hi). Returns std::nullopt on success, or the first
  /// existing interval that overlaps on failure (the set is unchanged).
  /// Requires lo < hi.
  std::optional<Interval> insert(const Rational& lo, const Rational& hi);

  /// True iff [lo, hi) overlaps some stored interval. Requires lo < hi.
  [[nodiscard]] bool overlaps(const Rational& lo, const Rational& hi) const;

  /// Number of stored intervals.
  [[nodiscard]] std::size_t size() const noexcept { return by_lo_.size(); }

  [[nodiscard]] bool empty() const noexcept { return by_lo_.empty(); }

 private:
  [[nodiscard]] std::optional<Interval> find_overlap(const Rational& lo,
                                                     const Rational& hi) const;

  std::map<Rational, Rational> by_lo_;  // lo -> hi
};

}  // namespace postal
