// The tick-native schedule assembly (sim/tick_schedule.hpp) against its
// specification: for any slices whose (tick, src) keys are unique, the
// assembled events are exactly what Schedule::sort() makes of the same
// events -- shuffled, adversarial, split across slices, and with a tick
// span wide enough to take the comparison fallback.
#include <algorithm>
#include <cstdint>
#include <string>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "sched/schedule.hpp"
#include "sim/tick_schedule.hpp"
#include "support/error.hpp"
#include "support/prng.hpp"

namespace postal {
namespace {

/// Schedule::sort() of the same events, in the order given.
std::vector<SendEvent> reference(const std::vector<TickSend>& sends, std::int64_t q) {
  Schedule schedule;
  for (const TickSend& s : sends) schedule.add(s.src, s.dst, s.msg, Rational(s.tick, q));
  schedule.sort();
  return schedule.events();
}

/// Splits `sends` into slices over the contiguous rank ranges `bounds`
/// (bounds[i], bounds[i + 1]), assembles them, and returns the events.
/// `fallbacks` counts the slices that took the comparison sort.
std::vector<SendEvent> assemble(const std::vector<TickSend>& sends,
                                const std::vector<ProcId>& bounds, std::int64_t q,
                                std::uint64_t* fallbacks = nullptr) {
  std::vector<TickScheduleSlice> slices(bounds.size() - 1);
  for (std::size_t s = 0; s + 1 < bounds.size(); ++s) {
    slices[s].reset(bounds[s], bounds[s + 1]);
  }
  for (const TickSend& e : sends) {
    const auto it = std::upper_bound(bounds.begin(), bounds.end(), e.src);
    slices[static_cast<std::size_t>(it - bounds.begin()) - 1].record(e.tick, e.src,
                                                                     e.dst, e.msg);
  }
  std::vector<TickScheduleSlice*> ptrs;
  std::uint64_t fallback_count = 0;
  for (TickScheduleSlice& slice : slices) {
    if (slice.sort()) ++fallback_count;
    ptrs.push_back(&slice);
  }
  std::vector<SendEvent> out(assign_tick_slots(ptrs));
  for (const TickScheduleSlice& slice : slices) slice.emit(q, out.data());
  if (fallbacks != nullptr) *fallbacks = fallback_count;
  return out;
}

/// n ranks, each sending `per_rank` messages at distinct random ticks in
/// [0, horizon), in shuffled order.
std::vector<TickSend> random_sends(Xoshiro256& rng, ProcId n, std::uint64_t per_rank,
                                   Tick horizon) {
  std::vector<TickSend> sends;
  for (ProcId src = 0; src < n; ++src) {
    std::vector<Tick> ticks;
    while (ticks.size() < per_rank) {
      const Tick t =
          static_cast<Tick>(rng.uniform(0, static_cast<std::uint64_t>(horizon) - 1));
      if (std::find(ticks.begin(), ticks.end(), t) == ticks.end()) ticks.push_back(t);
    }
    for (const Tick t : ticks) {
      const ProcId dst = static_cast<ProcId>((src + 1 + rng.uniform(0, n - 2)) % n);
      sends.push_back(TickSend{t, src, dst, static_cast<MsgId>(rng.uniform(0, 3))});
    }
  }
  for (std::size_t i = sends.size(); i > 1; --i) {
    std::swap(sends[i - 1], sends[rng.uniform(0, i - 1)]);
  }
  return sends;
}

TEST(TickSchedule, ShuffledSlicesSortExactlyAsScheduleSort) {
  Xoshiro256 rng(0x7157u);
  for (int trial = 0; trial < 40; ++trial) {
    const ProcId n = static_cast<ProcId>(rng.uniform(2, 64));
    const std::int64_t q = static_cast<std::int64_t>(rng.uniform(1, 4));
    const std::vector<TickSend> sends =
        random_sends(rng, n, rng.uniform(0, 6), static_cast<Tick>(rng.uniform(8, 40)));
    const std::vector<SendEvent> want = reference(sends, q);
    const std::string tag = "trial=" + std::to_string(trial);
    EXPECT_EQ(assemble(sends, {0, n}, q), want) << tag;
    // Contiguous rank ranges in slice order, including empty ones.
    const ProcId mid = static_cast<ProcId>(rng.uniform(0, n));
    const ProcId third = static_cast<ProcId>(rng.uniform(mid, n));
    EXPECT_EQ(assemble(sends, {0, mid, third, n}, q), want) << tag;
    EXPECT_EQ(assemble(sends, {0, 0, n, n}, q), want) << tag;
  }
}

TEST(TickSchedule, AdversarialOrdersSortExactly) {
  const ProcId n = 50;
  std::vector<TickSend> same_tick;      // one tick, sources descending
  std::vector<TickSend> same_src;       // one source, ticks descending
  std::vector<TickSend> anti_diagonal;  // later ticks from lower ranks
  for (ProcId p = n; p-- > 1;) {
    same_tick.push_back(TickSend{7, p, 0, 0});
    same_src.push_back(TickSend{static_cast<Tick>(p) * 3, 0, p, 0});
    anti_diagonal.push_back(TickSend{static_cast<Tick>(n - p), p, 0, p % 2});
  }
  for (const auto* sends : {&same_tick, &same_src, &anti_diagonal}) {
    for (const std::int64_t q : {std::int64_t{1}, std::int64_t{3}}) {
      const std::vector<SendEvent> want = reference(*sends, q);
      EXPECT_EQ(assemble(*sends, {0, n}, q), want);
      EXPECT_EQ(assemble(*sends, {0, 10, 11, 30, n}, q), want);
    }
  }
  EXPECT_TRUE(assemble({}, {0, n}, 1).empty());
  EXPECT_TRUE(assemble({}, {0, 0, n}, 1).empty());
  const std::vector<TickSend> one = {TickSend{5, 3, 4, 0}};
  EXPECT_EQ(assemble(one, {0, 2, n}, 2), reference(one, 2));
}

TEST(TickSchedule, WideSpanTakesTheComparisonFallbackAndCountsIt) {
  const Tick wide = static_cast<Tick>(kTickSpanCap) + 5;
  const std::vector<TickSend> sends = {
      {wide, 2, 0, 0}, {0, 3, 1, 0}, {wide, 3, 1, 0}, {4, 1, 2, 0}, {0, 0, 1, 0}};
  const std::vector<SendEvent> want = reference(sends, 2);
  std::uint64_t fallbacks = 0;
  EXPECT_EQ(assemble(sends, {0, 4}, 2, &fallbacks), want);
  EXPECT_EQ(fallbacks, 1u);
  // Split: only the slice of ranks [2, 4) spans both extremes.
  EXPECT_EQ(assemble(sends, {0, 2, 4}, 2, &fallbacks), want);
  EXPECT_EQ(fallbacks, 1u);
  // At the cap exactly, the counting sort still runs.
  const std::vector<TickSend> at_cap = {
      {static_cast<Tick>(kTickSpanCap) - 1, 0, 1, 0}, {0, 1, 0, 0}};
  EXPECT_EQ(assemble(at_cap, {0, 2}, 1, &fallbacks), reference(at_cap, 1));
  EXPECT_EQ(fallbacks, 0u);
}

TEST(TickSchedule, DuplicateTickAndSourceIsAnInvariantViolation) {
  // Two sends of one processor at one tick break the one-send-per-unit
  // port rule the order relies on; both sort paths must refuse them.
  for (const Tick far : {Tick{9}, static_cast<Tick>(kTickSpanCap) * 2}) {
    TickScheduleSlice slice;
    slice.reset(0, 4);
    slice.record(far, 1, 2, 0);
    slice.record(3, 1, 2, 0);
    slice.record(3, 1, 0, 1);
    slice.sort();
    std::vector<SendEvent> out(assign_tick_slots({&slice}));
    EXPECT_THROW(slice.emit(1, out.data()), LogicError) << far;
  }
}

TEST(TickSchedule, WarmRerunGrowsNoBuffer) {
  Xoshiro256 rng(0xA2E4u);
  const std::vector<TickSend> sends = random_sends(rng, 32, 5, 30);
  TickScheduleSlice slice;
  const auto run = [&] {
    slice.reset(0, 32);
    for (const TickSend& s : sends) slice.record(s.tick, s.src, s.dst, s.msg);
    slice.sort();
    std::vector<SendEvent> out(assign_tick_slots({&slice}));
    slice.emit(1, out.data());
    return out;
  };
  const std::vector<SendEvent> cold = run();
  EXPECT_GT(slice.note_growths(), 0u);
  EXPECT_EQ(run(), cold);
  EXPECT_EQ(slice.note_growths(), 0u);
}

TEST(TickSchedule, AssembledScheduleKeepsAddPreconditions) {
  TickScheduleSlice slice;
  slice.reset(0, 3);
  slice.record(2, 2, 0, 0);
  slice.record(0, 0, 1, 0);
  const Schedule schedule = assemble_tick_schedule(slice, 2);
  ASSERT_EQ(schedule.size(), 2u);
  EXPECT_EQ(schedule.events()[0], (SendEvent{0, 1, 0, Rational(0)}));
  EXPECT_EQ(schedule.events()[1], (SendEvent{2, 0, 0, Rational(1)}));
  EXPECT_THROW(
      static_cast<void>(Schedule::adopt_sorted({SendEvent{1, 1, 0, Rational(0)}})),
      InvalidArgument);
  EXPECT_THROW(
      static_cast<void>(Schedule::adopt_sorted({SendEvent{0, 1, 0, Rational(-1, 2)}})),
      InvalidArgument);
}

}  // namespace
}  // namespace postal
