#include "sched/schedule.hpp"

#include <algorithm>
#include <ostream>
#include <sstream>
#include <tuple>

#include "support/error.hpp"

namespace postal {

std::ostream& operator<<(std::ostream& os, const SendEvent& e) {
  return os << "p" << e.src << " -> p" << e.dst << " : M" << (e.msg + 1)
            << " @ t=" << e.t;
}

std::string violation_prefix(const SendEvent& e) {
  std::ostringstream oss;
  oss << "[" << e << "] ";
  return oss.str();
}

std::string proc_text(ProcId p, const char* what, std::optional<MsgId> number) {
  std::string text = "p";
  text += std::to_string(p);
  text += what;
  if (number.has_value()) text += std::to_string(*number);
  return text;
}

void Schedule::add(ProcId src, ProcId dst, MsgId msg, Rational t) {
  add(SendEvent{src, dst, msg, std::move(t)});
}

void Schedule::add(SendEvent event) {
  POSTAL_REQUIRE(event.src != event.dst, "Schedule: a processor cannot send to itself");
  POSTAL_REQUIRE(event.t >= Rational(0), "Schedule: send times must be >= 0");
  events_.push_back(std::move(event));
}

void Schedule::append_shifted(const Schedule& other, const Rational& dt,
                              MsgId msg_offset) {
  events_.reserve(events_.size() + other.events_.size());
  for (const SendEvent& e : other.events_) {
    add(e.src, e.dst, e.msg + msg_offset, e.t + dt);
  }
}

void Schedule::sort() {
  std::stable_sort(events_.begin(), events_.end(),
                   [](const SendEvent& a, const SendEvent& b) {
                     return std::tie(a.t, a.src, a.dst, a.msg) <
                            std::tie(b.t, b.src, b.dst, b.msg);
                   });
}

Schedule Schedule::adopt_sorted(std::vector<SendEvent> events) {
  for (const SendEvent& e : events) {
    POSTAL_REQUIRE(e.src != e.dst, "Schedule: a processor cannot send to itself");
    // t >= 0 without a cross-multiplying compare: the denominator is positive.
    POSTAL_REQUIRE(e.t.num() >= 0, "Schedule: send times must be >= 0");
  }
  Schedule schedule;
  schedule.events_ = std::move(events);
  return schedule;
}

Rational Schedule::last_send_start() const {
  Rational latest(0);
  for (const SendEvent& e : events_) latest = rmax(latest, e.t);
  return latest;
}

Rational Schedule::makespan(const Rational& lambda) const {
  if (events_.empty()) return Rational(0);
  return last_send_start() + lambda;
}

std::vector<std::uint64_t> Schedule::sends_per_proc(std::uint64_t n) const {
  std::vector<std::uint64_t> counts(n, 0);
  for (const SendEvent& e : events_) {
    POSTAL_REQUIRE(e.src < n && e.dst < n,
                   "Schedule::sends_per_proc: event references processor >= n");
    ++counts[e.src];
  }
  return counts;
}

std::uint32_t Schedule::message_count() const {
  std::uint32_t max_id = 0;
  bool any = false;
  for (const SendEvent& e : events_) {
    max_id = std::max(max_id, e.msg);
    any = true;
  }
  return any ? max_id + 1 : 0;
}

std::ostream& operator<<(std::ostream& os, const Schedule& s) {
  for (const SendEvent& e : s.events()) os << e << "\n";
  return os;
}

}  // namespace postal
