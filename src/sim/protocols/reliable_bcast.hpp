// Reliable broadcast on top of the optimal BCAST tree: ack / timeout /
// exponential-backoff retransmission, plus subtree repair when a relay
// dies (docs/FAULTS.md).
//
// Fault-free, the protocol's DATA sends are event-for-event the paper's
// Algorithm BCAST -- a processor receiving its range immediately starts
// the generalized-Fibonacci splits, so completion is exactly f_lambda(n)
// (asserted in the tests). The reliability layer rides on top:
//
//   * every DATA send is tracked by the sender: the child owes an ACK,
//     and a local timer fires if it does not arrive in time;
//   * ACKs are aggregated (convergecast): a processor acks its parent only
//     once its entire assigned subtree has acked, so a parent's single
//     timeout covers failures anywhere below the child;
//   * a timeout retransmits with exponentially growing patience; after
//     max_attempts the child is declared dead and the parent repairs: the
//     dead child owned the contiguous range [lo, hi), so the parent
//     re-roots the orphaned remainder by handing [lo+1, hi) to processor
//     lo+1, which broadcasts it with the optimal remaining-range
//     Fibonacci splits (cascading crashes recurse: if lo+1 is dead too,
//     its own timeout repairs with [lo+2, hi), and so on);
//   * duplicates are idempotent: a processor that already holds the
//     message just re-acks, and a DATA extending its range covers only
//     the extension, so spurious timeouts cost traffic, never safety.
//
// Guarantee (the chaos suite sweeps this): under any FaultPlan whose
// per-link loss bursts are bounded below the retransmission budget
// (LinkLoss::max_losses < max_attempts), every processor that never
// crashes receives the message, regardless of which relays die when.
// Unbounded adversarial loss is impossible to beat -- see docs/FAULTS.md.
#pragma once

#include <cstdint>
#include <vector>

#include "faults/fault_plan.hpp"
#include "model/genfib.hpp"
#include "sim/machine.hpp"
#include "sim/validator.hpp"

namespace postal {

/// Reliability knobs.
struct ReliableBcastOptions {
  /// DATA transmissions to a child before declaring it dead. Must be >= 1.
  /// Keep LinkLoss::max_losses < max_attempts to guarantee delivery to
  /// live processors.
  std::uint32_t max_attempts = 4;
  /// Extra slack added to every ack timeout (model time units, >= 0).
  Rational timeout_slack{2};
  /// Time representation for the Machine run and the validation pass
  /// (docs/PERFORMANCE.md). kAuto takes the int64 tick fast path when the
  /// run is exactly representable; kRational forces the reference engine.
  /// Reports are identical either way (chaos-differential-tested).
  TimePath time_path = TimePath::kAuto;
  /// Simulation lanes (docs/SIMULATION.md). 0 = inherit the caller's
  /// setting (Communicator::set_threads; the standalone runner treats it
  /// as 1). Values > 1 run the sharded ParMachine; the report is
  /// byte-identical at every setting. Note the ack timers are on the tick
  /// grid only when f_lambda values are (integer lambda): off-grid runs
  /// fall back to the sequential engine automatically.
  unsigned threads = 0;
  /// Trace retention (sim/trace.hpp). kCounters elides the per-delivery
  /// trace; completion, counters, and validation are unaffected (they read
  /// first arrivals and the schedule, both exact in either mode).
  TraceMode trace_mode = TraceMode::kFull;
};

/// Traffic/recovery counters of one run.
struct ReliableBcastCounters {
  std::uint64_t data_sends = 0;       ///< first DATA transmissions
  std::uint64_t retransmissions = 0;  ///< timeout-driven DATA resends
  std::uint64_t acks_sent = 0;
  std::uint64_t acks_received = 0;
  std::uint64_t timeouts = 0;         ///< timer firings that found no ack
  std::uint64_t dead_declared = 0;    ///< children given up on
  std::uint64_t repairs = 0;          ///< subtree re-roots (incl. range extensions)
};

/// Event-driven reliable broadcast of message id 0 from processor 0.
/// One protocol instance drives one Machine::run (state is per-run).
class ReliableBcastProtocol final : public Protocol {
 public:
  explicit ReliableBcastProtocol(const PostalParams& params,
                                 ReliableBcastOptions options = {});

  void on_start(MachineContext& ctx) override;
  void on_receive(MachineContext& ctx, const Packet& packet) override;
  void on_timer(MachineContext& ctx, std::uint64_t token) override;

  /// Add this instance's counters into `out` (per-shard instances sum to
  /// the sequential totals: each counter moves in one rank's handler).
  void harvest(ReliableBcastCounters& out) const;

 private:
  enum class SlotState : std::uint8_t { kPending, kAcked, kDead };

  struct ChildSlot {
    ProcId child = 0;
    std::uint64_t lo = 0;  ///< the child's assigned range [lo, hi), child == lo
    std::uint64_t hi = 0;
    std::uint32_t attempts = 0;
    SlotState state = SlotState::kPending;
  };

  struct ProcState {
    bool has_data = false;
    std::uint64_t hi = 0;     ///< responsible for [self, hi)
    Rational port_free;       ///< local mirror of the machine's output port
    std::vector<ChildSlot> children;
    std::vector<ProcId> waiting;  ///< DATA senders owed an ack once done
  };

  /// Port-mirrored send; returns the transmission's start time.
  Rational do_send(MachineContext& ctx, ProcId dst, const Packet& packet);
  /// First DATA to `child` for range [lo, hi); arms the ack timer.
  void send_data(MachineContext& ctx, ProcId child, std::uint64_t lo,
                 std::uint64_t hi);
  /// BCAST's generalized-Fibonacci splits over [self, hi), reliably.
  void spawn_children(MachineContext& ctx, std::uint64_t hi);
  /// Ack every waiting sender if the whole assigned subtree is resolved.
  void maybe_ack(MachineContext& ctx);
  /// Base ack timeout for a range of size m, measured from the DATA send
  /// start: generous enough that a fault-free subtree always acks in time.
  Rational timeout_base(std::uint64_t m);

  [[nodiscard]] ChildSlot* find_slot(ProcId self, ProcId child);

  ProcId origin_;
  Rational lambda_;
  GenFib fib_;
  ReliableBcastOptions options_;
  std::vector<ProcState> state_;
  ReliableBcastCounters counters_;
};

/// Everything one reliable run produces, judged.
struct ReliableBcastReport {
  MachineResult result;             ///< schedule/trace/stats/faults of the run
  ReliableBcastCounters counters;
  SimReport validation;             ///< fifo_receive + crash-aware validation
  Rational baseline;                ///< fault-free completion f_lambda(n)
  Rational completion;              ///< last first-arrival among live processors
  Rational recovery_overhead;       ///< max(0, completion - baseline)
  std::vector<ProcId> crashed;      ///< processors the plan crashes (any time)
  std::vector<ProcId> uncovered_alive;  ///< live processors never reached (bug!)
  bool covered = false;             ///< uncovered_alive.empty()
};

/// Run the protocol on a Machine under `plan` (nullptr = fault-free) and
/// judge the outcome: coverage of every surviving processor, crash-aware
/// validation, and completion against the f_lambda(n) baseline.
[[nodiscard]] ReliableBcastReport run_reliable_bcast(
    const PostalParams& params, const FaultPlan* plan = nullptr,
    const ReliableBcastOptions& options = {});

}  // namespace postal
