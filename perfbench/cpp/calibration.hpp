// Host-speed calibration for the end-to-end times.
//
// On a shared virtual machine the same code runs up to ~1.6x slower for
// seconds at a time while other tenants load the cores and caches; a
// plain host-time median then flips between the two speeds from run to
// run. The worker's main loop therefore times one calibration round -- a fixed,
// library-independent mix of hash-map, ordered-map and ALU work, which
// slows down with the host the way the workloads do -- next to every
// timed unit, and scales the unit's host time to the nominal host speed
// (RATIONALE.md, "Host-speed calibration"). Nothing here calls the library,
// so no change to the library can move the calibration.
#pragma once

#include <cstdint>

namespace perfbench {

/// Seconds one calibration round takes on the nominal host.
inline constexpr double kNominalRoundS = 0.035;

/// Runs one calibration round and returns its host seconds.
[[nodiscard]] double calibration_round_s();

/// The host's speed relative to nominal, from the median of `rounds`
/// rounds run now: > 1 means faster than nominal.
[[nodiscard]] double host_speed(int rounds);

/// Times a unit in segments separated by calibration rounds, and scales
/// each segment by the mean host speed of the rounds on its two sides.
/// Calibration time is not part of the unit's time.
class Pacer {
 public:
  /// Runs the round that precedes the first unit.
  Pacer() : last_round_s_(calibration_round_s()) {}

  /// Starts a unit; its first segment begins now.
  void begin_unit();
  /// Ends the current segment with a calibration round and starts the
  /// next. Workloads with long units call it every few hundred ms of work.
  void checkpoint();
  /// Ends the unit's last segment.
  void end_unit() { checkpoint(); }

  /// The finished unit's host seconds, and the same scaled to the nominal
  /// host speed.
  [[nodiscard]] double raw_s() const { return raw_s_; }
  [[nodiscard]] double scaled_s() const { return scaled_s_; }

 private:
  double last_round_s_;
  std::int64_t segment_start_ns_ = 0;
  double raw_s_ = 0.0;
  double scaled_s_ = 0.0;
};

}  // namespace perfbench
