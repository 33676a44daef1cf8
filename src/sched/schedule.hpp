// Schedule intermediate representation.
//
// Every broadcasting algorithm in this library is represented as a
// *schedule*: the set of atomic send events it performs. A schedule is the
// common currency between the algorithm generators (src/sched), the
// postal-model validator/simulator (src/sim), and the benches. The
// simulator, not the generator, is the authority on whether a schedule is
// legal in MPS(n, lambda) and on its makespan.
#pragma once

#include <cstdint>
#include <iosfwd>
#include <optional>
#include <string>
#include <vector>

#include "model/params.hpp"
#include "support/rational.hpp"

namespace postal {

/// One atomic send: processor `src` starts transmitting message `msg` to
/// processor `dst` at time `t` (occupying src's output port on [t, t+1) and
/// dst's input port on [t+lambda-1, t+lambda)).
struct SendEvent {
  ProcId src = 0;
  ProcId dst = 0;
  MsgId msg = 0;
  Rational t;

  friend bool operator==(const SendEvent&, const SendEvent&) = default;
};

std::ostream& operator<<(std::ostream& os, const SendEvent& e);

/// "[<event>] ": the prefix of every violation a checker reports against
/// one event. Checkers build it only when a clause fires.
[[nodiscard]] std::string violation_prefix(const SendEvent& e);

/// "p<p><what>[<number>]": the text of a per-processor violation, such as
/// "p3 never informed". Built by appending: GCC 12 at -O3 reports a false
/// -Werror=restrict inside std::string operator+ on a temporary.
[[nodiscard]] std::string proc_text(ProcId p, const char* what,
                                    std::optional<MsgId> number = {});

/// An ordered collection of send events plus bookkeeping helpers.
class Schedule {
 public:
  Schedule() = default;

  /// Append one send event.
  void add(ProcId src, ProcId dst, MsgId msg, Rational t);
  void add(SendEvent event);

  /// Append every event of `other`, shifted forward by `dt` and with
  /// message ids offset by `msg_offset`. Used by REPEAT's iteration overlap.
  void append_shifted(const Schedule& other, const Rational& dt, MsgId msg_offset);

  /// Stable-sort events by (t, src, dst, msg) for deterministic output.
  void sort();

  /// A schedule over `events`, which the caller has already put in sort()'s
  /// (t, src, dst, msg) order (the tick engines' assembly does). Checks
  /// add()'s preconditions on every event; skips the sort.
  [[nodiscard]] static Schedule adopt_sorted(std::vector<SendEvent> events);

  [[nodiscard]] const std::vector<SendEvent>& events() const noexcept { return events_; }
  [[nodiscard]] std::size_t size() const noexcept { return events_.size(); }
  [[nodiscard]] bool empty() const noexcept { return events_.empty(); }

  /// Latest send start, or 0 for an empty schedule.
  [[nodiscard]] Rational last_send_start() const;

  /// Latest arrival time (last send start + lambda), or 0 if empty. This is
  /// the running time T of the algorithm *if* the schedule's last event is
  /// on the critical path; the simulator computes the authoritative value.
  [[nodiscard]] Rational makespan(const Rational& lambda) const;

  /// Number of sends performed by each processor (index = ProcId), sized n.
  [[nodiscard]] std::vector<std::uint64_t> sends_per_proc(std::uint64_t n) const;

  /// Number of distinct message ids referenced (max id + 1), 0 if empty.
  [[nodiscard]] std::uint32_t message_count() const;

 private:
  std::vector<SendEvent> events_;
};

std::ostream& operator<<(std::ostream& os, const Schedule& s);

}  // namespace postal
