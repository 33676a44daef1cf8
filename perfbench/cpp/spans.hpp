// In-memory span recorder for the benchmark's traced runs.
//
// Spans are opened and closed around calls into the library's public
// functions from the benchmark's own code (never inside the library). Each
// span has a name, a start and an end on the steady clock, the span that
// was open when it began (its parent), and the op it belongs to. Per-name
// totals (count, total time, time covered by direct children) are exact
// for every span; the individual span records are kept up to a cap and
// written out once, when the run ends.
#pragma once

#include <chrono>
#include <cstdint>
#include <ostream>
#include <string>
#include <vector>

namespace perfbench {

/// Steady-clock nanoseconds (CLOCK_MONOTONIC on Linux, the clock Python's
/// time.monotonic() reads, so run.py can compare timestamps with it).
[[nodiscard]] inline std::int64_t now_ns() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

class Tracer {
 public:
  using NameId = std::uint32_t;

  /// Per-name aggregate over every closed span of that name.
  struct Totals {
    std::uint64_t count = 0;
    std::int64_t total_ns = 0;
    std::int64_t child_ns = 0;  ///< time covered by direct child spans
  };

  /// What end() measured for the span it closed.
  struct Closed {
    std::int64_t duration_ns = 0;
    std::int64_t child_ns = 0;
  };

  explicit Tracer(std::size_t max_records = 200000) : max_records_(max_records) {}

  /// Id for `name`, creating it on first use. Call outside timed code.
  [[nodiscard]] NameId intern(const std::string& name);

  /// Op id stamped on the spans begun from now on.
  void set_op(std::uint64_t op) noexcept { op_ = op; }

  /// Open a span; its name is given when it closes, so a caller can name
  /// it after the call's outcome.
  void begin();
  /// Close the innermost open span under `name`.
  Closed end(NameId name);

  [[nodiscard]] const Totals& totals(NameId name) const { return totals_[name]; }
  /// Mean seconds per span of `name` (0 when none closed).
  [[nodiscard]] double mean_s(NameId name) const;

  /// Writes the retained spans and the per-name self times as one JSON
  /// object. Self time is a span's duration minus its children's.
  void write_json(std::ostream& out, const std::string& workload,
                  std::uint64_t seed) const;

 private:
  struct Record {
    NameId name = 0;
    std::uint32_t parent = kNone;
    std::uint64_t op = 0;
    std::int64_t start_ns = 0;
    std::int64_t end_ns = 0;
  };
  struct Open {
    std::int64_t start_ns = 0;
    std::int64_t child_ns = 0;
    std::uint32_t record = kNone;
  };
  static constexpr std::uint32_t kNone = 0xffffffffU;

  std::size_t max_records_;
  std::uint64_t op_ = 0;
  std::uint64_t dropped_ = 0;
  std::vector<std::string> names_;
  std::vector<Totals> totals_;
  std::vector<Open> stack_;
  std::vector<Record> records_;
};

/// Scoped span: a no-op when `tracer` is null (the untraced runs).
class Span {
 public:
  Span(Tracer* tracer, Tracer::NameId name) : tracer_(tracer), name_(name) {
    if (tracer_ != nullptr) tracer_->begin();
  }
  ~Span() {
    if (tracer_ != nullptr) static_cast<void>(tracer_->end(name_));
  }
  Span(const Span&) = delete;
  Span& operator=(const Span&) = delete;

 private:
  Tracer* tracer_;
  Tracer::NameId name_;
};

}  // namespace perfbench
