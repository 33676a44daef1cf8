// Tick-native schedule assembly, shared by both tick engines
// (docs/SIMULATION.md, "Schedule assembly").
//
// The output port sends one message per time unit: a send that starts at
// tick t occupies its processor's port until t + q, so within one engine
// run no two sends of one processor share a start tick. (tick, src) is
// therefore a unique key, and ordering a run's sends by it is ordering
// them by Schedule::sort()'s (t, src, dst, msg): t is tick / q, and a
// unique (t, src) prefix never reaches the dst and msg tiebreaks. That
// makes the order an O(n) counting sort over integers instead of a
// comparison sort over Rationals.
//
// A TickScheduleSlice is one lane's share of a run's sends: the records it
// appended over the ranks [lo, hi) it owns. Assembly has three steps, so
// the two expensive ones can run one lane per slice:
//
//   1. sort()             per slice: two stable counting passes over
//                         indices -- by src over [lo, hi), then by tick --
//                         or std::sort on the integer (tick, src) key when
//                         the slice's tick span exceeds kTickSpanCap;
//   2. assign_tick_slots  sequential over the slices' tick buckets: the
//                         global order is, tick by tick, slice 0's bucket,
//                         then slice 1's, ... -- exact because the slices
//                         own contiguous rank ranges in slice order;
//   3. emit()             per slice: write the SendEvents into their
//                         disjoint slots of one exactly-sized vector,
//                         converting each distinct tick to Rational once.
//
// Every buffer is retained across runs (cleared, never freed), so a warm
// rerun of the same workload allocates nothing; note_growths() reports the
// capacity growths for ParRunInfo::arena_growths.
#pragma once

#include <array>
#include <cstddef>
#include <cstdint>
#include <vector>

#include "model/params.hpp"
#include "sched/schedule.hpp"
#include "support/ticks.hpp"

namespace postal {

/// One send as a tick engine records it: no Rational, so no gcd.
struct TickSend {
  Tick tick = 0;
  ProcId src = 0;
  ProcId dst = 0;
  MsgId msg = 0;
};

/// Widest tick span a slice may cover and still take the counting sort.
/// Wider slices (long runs, latency spikes) sort with std::sort on the
/// integer key instead; the result is the same order.
inline constexpr std::uint64_t kTickSpanCap = std::uint64_t{1} << 14;

class TickScheduleSlice {
 public:
  /// Start a run over the ranks [lo, hi); buffers keep their capacity.
  void reset(ProcId lo, ProcId hi);

  /// Append one send (any order; sort() orders them).
  void record(Tick tick, ProcId src, ProcId dst, MsgId msg) {
    sends_.push_back(TickSend{tick, src, dst, msg});
  }

  /// The recorded sends, in append order.
  [[nodiscard]] const std::vector<TickSend>& sends() const noexcept { return sends_; }

  /// Order the slice by (tick, src) and group it into tick buckets.
  /// Returns true iff the span exceeded kTickSpanCap and the comparison
  /// fallback ran.
  bool sort();

  /// Write the sorted slice as SendEvents with t = tick / q into `out`, at
  /// the slots assign_tick_slots() gave its buckets. Throws LogicError if
  /// two sends share (tick, src): the one-send-per-unit port invariant that
  /// makes this order Schedule::sort()'s is broken.
  void emit(std::int64_t q, SendEvent* out) const;

  /// Capacity growths past this slice's watermarks since the last call.
  [[nodiscard]] std::uint64_t note_growths();

 private:
  friend std::size_t assign_tick_slots(const std::vector<TickScheduleSlice*>& slices);

  /// A run of equal ticks in the sorted order: order_[first, first + count)
  /// goes to the output slots [base, base + count).
  struct Bucket {
    Tick tick = 0;
    std::uint32_t first = 0;
    std::uint32_t count = 0;
    std::size_t base = 0;
  };

  ProcId lo_ = 0;
  ProcId hi_ = 0;
  std::vector<TickSend> sends_;        ///< append order
  std::vector<std::uint32_t> by_src_;  ///< indices after the src pass
  std::vector<std::uint32_t> order_;   ///< indices in (tick, src) order
  std::vector<std::uint32_t> counts_;  ///< counting-pass scratch
  std::vector<Bucket> buckets_;
  std::array<std::size_t, 5> caps_seen_{};  ///< capacity watermarks
};

/// Give every bucket of every (sorted) slice its global output slot:
/// ascending tick, and within a tick ascending slice index. Returns the
/// total number of sends. Sequential; its cost is the bucket count times
/// the slice count.
std::size_t assign_tick_slots(const std::vector<TickScheduleSlice*>& slices);

/// One-slice assembly for the sequential engine: sort, emit, adopt.
[[nodiscard]] Schedule assemble_tick_schedule(TickScheduleSlice& slice,
                                              std::int64_t q);

}  // namespace postal
