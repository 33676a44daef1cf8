// The port-window check shared by the extension models (hetero, two-level,
// k-ported, LogP; the reduction reuses its parts). A send holds the
// sender's port for a window from its send time, and the receiver's port
// for a window ending at its arrival. Ports are IntervalSets, not one
// "last window end" each: under per-pair latencies a later send can arrive
// earlier, so the receive windows on one port are not monotone.
#pragma once

#include <cstdint>
#include <functional>
#include <string>
#include <vector>

#include "sched/schedule.hpp"
#include "support/interval_set.hpp"

namespace postal {

/// Result of an extension model's check.
struct PortCheckReport {
  bool ok = false;
  std::vector<std::string> violations;
  Rational completion;  ///< latest arrival

  /// Records "[<e>] <what>".
  void violate(const SendEvent& e, const char* what) {
    violations.push_back(violation_prefix(e) + what);
  }
};

/// The schedule's events, stable-sorted by send time.
[[nodiscard]] std::vector<SendEvent> time_sorted(const Schedule& schedule);

/// Exclusive send and receive ports of n processors, each window `window`
/// long. A claim returns false, and claims nothing, when its window
/// overlaps an earlier claim.
struct PortClaims {
  explicit PortClaims(std::uint64_t n, Rational len = Rational(1))
      : window(std::move(len)), send_port(n), recv_port(n) {}

  /// Claims [t, t + window) on e.src's send port.
  bool send(const SendEvent& e) { return !send_port[e.src].insert(e.t, e.t + window); }
  /// Claims [arrive - window, arrive) on e.dst's receive port.
  bool receive(const SendEvent& e, const Rational& arrive) {
    return !recv_port[e.dst].insert(arrive - window, arrive);
  }

  Rational window;
  std::vector<IntervalSet> send_port;
  std::vector<IntervalSet> recv_port;
};

/// What one model contributes to check_port_windows.
struct PortModel {
  /// When e's message arrives (becomes usable) at e.dst.
  std::function<Rational(const SendEvent&)> arrival;
  Rational window{1};  ///< length of every send and receive window
  const char* not_informed = "sender not informed yet";
  const char* send_conflict = "send-port conflict";
  const char* recv_conflict = "receive-port conflict";
  /// Replaces the send-port claim when set; false means e breaks the
  /// model's own send rule. Called once per in-range event.
  std::function<bool(const SendEvent&)> claim_send;
};

/// Checks a single-message broadcast from p0 over n processors: ids in
/// range, every sender informed by its send time, the model's port rules,
/// and every processor informed. completion is the latest arrival.
[[nodiscard]] PortCheckReport check_port_windows(const Schedule& schedule,
                                                 std::uint64_t n,
                                                 const PortModel& model);

}  // namespace postal
