#include "sim/tick_schedule.hpp"

#include <algorithm>
#include <limits>
#include <tuple>
#include <utility>

#include "support/error.hpp"

namespace postal {

void TickScheduleSlice::reset(ProcId lo, ProcId hi) {
  POSTAL_CHECK(lo <= hi);
  lo_ = lo;
  hi_ = hi;
  sends_.clear();
  buckets_.clear();
}

bool TickScheduleSlice::sort() {
  const std::size_t m = sends_.size();
  POSTAL_CHECK(m <= std::numeric_limits<std::uint32_t>::max());
  buckets_.clear();
  order_.resize(m);
  if (m == 0) return false;
  Tick lo_t = sends_[0].tick;
  Tick hi_t = lo_t;
  for (const TickSend& s : sends_) {
    lo_t = std::min(lo_t, s.tick);
    hi_t = std::max(hi_t, s.tick);
  }
  const std::uint64_t span = static_cast<std::uint64_t>(hi_t - lo_t) + 1;
  if (span > kTickSpanCap) {
    for (std::size_t i = 0; i < m; ++i) order_[i] = static_cast<std::uint32_t>(i);
    std::sort(order_.begin(), order_.end(), [this](std::uint32_t a, std::uint32_t b) {
      return std::tie(sends_[a].tick, sends_[a].src) <
             std::tie(sends_[b].tick, sends_[b].src);
    });
    for (std::size_t k = 0; k < m; ++k) {
      const Tick tick = sends_[order_[k]].tick;
      if (buckets_.empty() || buckets_.back().tick != tick) {
        buckets_.push_back(Bucket{tick, static_cast<std::uint32_t>(k), 0, 0});
      }
      ++buckets_.back().count;
    }
    return true;
  }

  // Pass 1: stable counting sort of the indices by src over [lo, hi).
  counts_.assign(static_cast<std::size_t>(hi_ - lo_), 0);
  for (const TickSend& s : sends_) {
    POSTAL_CHECK(s.src >= lo_ && s.src < hi_);
    ++counts_[s.src - lo_];
  }
  std::uint32_t offset = 0;
  for (std::uint32_t& c : counts_) {
    const std::uint32_t count = c;
    c = offset;
    offset += count;
  }
  by_src_.resize(m);
  for (std::size_t i = 0; i < m; ++i) {
    by_src_[counts_[sends_[i].src - lo_]++] = static_cast<std::uint32_t>(i);
  }

  // Pass 2: stable by tick, so each tick bucket keeps ascending src.
  counts_.assign(static_cast<std::size_t>(span), 0);
  for (const TickSend& s : sends_) ++counts_[static_cast<std::size_t>(s.tick - lo_t)];
  offset = 0;
  for (std::size_t t = 0; t < counts_.size(); ++t) {
    const std::uint32_t count = counts_[t];
    counts_[t] = offset;
    if (count != 0) {
      buckets_.push_back(Bucket{lo_t + static_cast<Tick>(t), offset, count, 0});
    }
    offset += count;
  }
  for (const std::uint32_t i : by_src_) {
    order_[counts_[static_cast<std::size_t>(sends_[i].tick - lo_t)]++] = i;
  }
  return false;
}

void TickScheduleSlice::emit(std::int64_t q, SendEvent* out) const {
  for (const Bucket& b : buckets_) {
    const Rational t(b.tick, q);  // once per distinct tick
    SendEvent* slot = out + b.base;
    for (std::uint32_t k = 0; k < b.count; ++k) {
      const TickSend& s = sends_[order_[b.first + k]];
      // (tick, src) is unique per run: one send per port per time unit.
      POSTAL_CHECK(k == 0 || s.src > slot[k - 1].src);
      slot[k] = SendEvent{s.src, s.dst, s.msg, t};
    }
  }
}

std::uint64_t TickScheduleSlice::note_growths() {
  const std::array<std::size_t, 5> caps = {sends_.capacity(), by_src_.capacity(),
                                           order_.capacity(), counts_.capacity(),
                                           buckets_.capacity()};
  std::uint64_t growths = 0;
  for (std::size_t i = 0; i < caps.size(); ++i) {
    if (caps[i] > caps_seen_[i]) {
      caps_seen_[i] = caps[i];
      ++growths;
    }
  }
  return growths;
}

std::size_t assign_tick_slots(const std::vector<TickScheduleSlice*>& slices) {
  std::vector<std::size_t> head(slices.size(), 0);
  std::size_t next = 0;
  while (true) {
    bool any = false;
    Tick tick = 0;
    for (std::size_t s = 0; s < slices.size(); ++s) {
      const auto& buckets = slices[s]->buckets_;
      if (head[s] == buckets.size()) continue;
      if (!any || buckets[head[s]].tick < tick) tick = buckets[head[s]].tick;
      any = true;
    }
    if (!any) return next;
    for (std::size_t s = 0; s < slices.size(); ++s) {
      auto& buckets = slices[s]->buckets_;
      if (head[s] == buckets.size() || buckets[head[s]].tick != tick) continue;
      buckets[head[s]].base = next;
      next += buckets[head[s]].count;
      ++head[s];
    }
  }
}

Schedule assemble_tick_schedule(TickScheduleSlice& slice, std::int64_t q) {
  slice.sort();
  std::vector<SendEvent> events(assign_tick_slots({&slice}));
  slice.emit(q, events.data());
  return Schedule::adopt_sorted(std::move(events));
}

}  // namespace postal
