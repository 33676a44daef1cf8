#include "sim/machine.hpp"

#include <algorithm>

#include "support/error.hpp"

namespace postal {

const PostalParams& MachineContext::params() const noexcept {
  return sink_.sink_params();
}

void MachineContext::send(ProcId dst, const Packet& packet) {
  sink_.sink_send(self_, dst, packet, now_, now_ticks_);
}

void MachineContext::set_timer(const Rational& delay, std::uint64_t token) {
  POSTAL_REQUIRE(delay >= Rational(0), "Machine: timer delay must be >= 0");
  sink_.sink_timer(self_, now_, now_ticks_, delay, token);
}

void Machine::sink_send(ProcId self, ProcId dst, const Packet& packet,
                        const Rational& now, Tick now_ticks) {
  if (tick_mode_) {
    enqueue_send_ticks(self, dst, packet, now_ticks);
  } else {
    enqueue_send(self, dst, packet, now);
  }
}

void Machine::sink_timer(ProcId self, const Rational& now, Tick now_ticks,
                         const Rational& delay, std::uint64_t token) {
  if (tick_mode_) {
    enqueue_timer_ticks(self, now_ticks, now, delay, token);
  } else {
    enqueue_timer(self, now + delay, token);
  }
}

const PostalParams& Machine::sink_params() const noexcept { return params_; }

Machine::Machine(PostalParams params, std::uint32_t messages)
    : params_(std::move(params)), messages_(messages) {}

void Machine::attach_faults(const FaultPlan& plan) {
  if (plan.empty()) {
    injector_.reset();
    return;
  }
  injector_ = std::make_unique<FaultInjector>(plan, params_.n());
}

void Machine::enqueue_send(ProcId src, ProcId dst, const Packet& packet,
                           const Rational& now) {
  POSTAL_REQUIRE(dst < params_.n(), "Machine: send destination out of range");
  POSTAL_REQUIRE(dst != src, "Machine: a processor cannot send to itself");
  POSTAL_REQUIRE(packet.msg < messages_, "Machine: message id out of range");
  // The output port transmits one message per unit of time, FIFO.
  const Rational start = rmax(now, port_free_[src]);
  if (injector_ && injector_->crashed(src, start)) {
    // The handler ran before the crash, but the port slot this send would
    // occupy starts at or after it: the transmission never happens.
    ++fault_stats_.sends_suppressed;
    fault_stats_.events.push_back(
        FaultEvent{FaultEvent::Kind::kSendSuppressed, start, src, dst});
    return;
  }
  port_free_[src] = start + Rational(1);
  ++stats_.sends_enqueued;
  if (start > now) ++stats_.sends_deferred;
  stats_.port_busy[src] += Rational(1);
  // Backlog = transmissions not yet finished on this port, i.e. the busy
  // span [now, port_free) measured in unit-length sends (partial first
  // send rounds up).
  const std::uint64_t depth =
      static_cast<std::uint64_t>((port_free_[src] - now).ceil());
  if (depth > stats_.max_fifo_depth) stats_.max_fifo_depth = depth;
  schedule_.add(src, dst, packet.msg, start);
  Rational latency = params_.lambda();
  if (injector_ && injector_->has_spikes()) {
    const Rational extra = injector_->extra_latency(start);
    if (extra > Rational(0)) {
      latency += extra;
      ++fault_stats_.spikes_applied;
      fault_stats_.events.push_back(
          FaultEvent{FaultEvent::Kind::kSpike, start, src, dst});
    }
  }
  if (injector_ && injector_->has_losses() && injector_->lose(src, dst)) {
    // The send occupied the port and is part of the schedule -- the wire
    // ate it. The arrival simply never happens.
    ++fault_stats_.drops_loss;
    fault_stats_.events.push_back(
        FaultEvent{FaultEvent::Kind::kDropLoss, start + latency, dst, src});
    return;
  }
  queue_.push(start + latency,
              Pending{Pending::Kind::kFlight, src, dst, packet, start, 0});
}

void Machine::enqueue_timer(ProcId owner, const Rational& at, std::uint64_t token) {
  ++stats_.timers_set;
  queue_.push(at, Pending{Pending::Kind::kTimer, owner, owner, Packet{}, at, token});
}

void Machine::deliver(Protocol& protocol, const Rational& time,
                      const Pending& flight, std::uint64_t& delivered) {
  if (injector_ && injector_->crashed(flight.dst, time)) {
    ++fault_stats_.drops_crash;
    fault_stats_.events.push_back(
        FaultEvent{FaultEvent::Kind::kDropCrash, time, flight.dst, flight.src});
    return;
  }
  ++delivered;
  trace_->record(
      Delivery{flight.src, flight.dst, flight.packet.msg, flight.send_start, time});
  MachineContext ctx(*this, flight.dst, time);
  protocol.on_receive(ctx, flight.packet);
}

// ---------------------------------------------------------------------------
// Tick engine (docs/PERFORMANCE.md). Every function below is the exact
// integer-time image of its Rational twin above: same branch structure,
// same fault-hook call order (loss draws consume per-link counters, so
// order is behavior), same FaultEvent pushes with exactly-converted times.
// The differential and chaos tests assert event-for-event identity.
// ---------------------------------------------------------------------------

bool Machine::try_tick_setup(std::uint64_t max_events) {
  // The admission logic lives in sim/tick_setup.hpp, shared with
  // ParMachine so both engines tick exactly the same runs.
  std::optional<TickRunSetup> setup =
      plan_tick_run(params_, injector_.get(), max_events);
  if (!setup.has_value()) return false;
  tick_q_ = setup->q;
  lambda_ticks_ = setup->lambda_ticks;
  crash_ticks_ = std::move(setup->crash_ticks);
  spike_ticks_ = std::move(setup->spike_ticks);
  return true;
}

void Machine::enqueue_send_ticks(ProcId src, ProcId dst, const Packet& packet,
                                 Tick now) {
  POSTAL_REQUIRE(dst < params_.n(), "Machine: send destination out of range");
  POSTAL_REQUIRE(dst != src, "Machine: a processor cannot send to itself");
  POSTAL_REQUIRE(packet.msg < messages_, "Machine: message id out of range");
  const Tick start = std::max(now, port_free_ticks_[src]);
  // Unreachable before memory exhaustion (2^61/q sends queued on one
  // port), but keeps the no-overflow guarantee airtight rather than UB.
  POSTAL_CHECK(start <= kTickCap);
  if (injector_ && crashed_ticks(src, start)) {
    ++fault_stats_.sends_suppressed;
    fault_stats_.events.push_back(
        FaultEvent{FaultEvent::Kind::kSendSuppressed, tick_rational(start), src, dst});
    return;
  }
  port_free_ticks_[src] = start + tick_q_;
  ++stats_.sends_enqueued;
  if (start > now) ++stats_.sends_deferred;
  ++port_busy_units_[src];
  // Integer image of ceil((port_free - now) / 1): the span is a positive
  // multiple of ticks, so the rounded-up unit count matches exactly.
  const std::uint64_t depth = static_cast<std::uint64_t>(
      (port_free_ticks_[src] - now + tick_q_ - 1) / tick_q_);
  if (depth > stats_.max_fifo_depth) stats_.max_fifo_depth = depth;
  tick_sends_.record(start, src, dst, packet.msg);
  Tick latency = lambda_ticks_;
  if (injector_ && injector_->has_spikes()) {
    Tick extra = 0;
    for (const SpikeTicks& s : spike_ticks_) {
      if (start >= s.from && start < s.until) extra += s.extra;
    }
    if (extra > 0) {
      latency += extra;
      ++fault_stats_.spikes_applied;
      fault_stats_.events.push_back(
          FaultEvent{FaultEvent::Kind::kSpike, tick_rational(start), src, dst});
    }
  }
  if (injector_ && injector_->has_losses() && injector_->lose(src, dst)) {
    ++fault_stats_.drops_loss;
    fault_stats_.events.push_back(FaultEvent{
        FaultEvent::Kind::kDropLoss, tick_rational(start + latency), dst, src});
    return;
  }
  tick_queue_.push(start + latency, seq_++,
                   PendingTicks{Pending::Kind::kFlight, src, dst, packet, start, 0});
}

void Machine::enqueue_timer_ticks(ProcId owner, Tick now_ticks, const Rational& now,
                                  const Rational& delay, std::uint64_t token) {
  ++stats_.timers_set;
  const std::optional<Tick> d = TickDomain(tick_q_).to_ticks(delay);
  Tick fire = 0;
  if (d.has_value() && !__builtin_add_overflow(now_ticks, *d, &fire) &&
      fire <= kTickCap) {
    tick_queue_.push(fire, seq_++,
                     PendingTicks{Pending::Kind::kTimer, owner, owner, Packet{},
                                  fire, token});
    return;
  }
  // The fire time is off this run's 1/q grid (or beyond the tick range):
  // park it Rational-keyed under the shared seq counter. The loop top
  // transplants the whole run to the Rational engine before anything else
  // pops, so the global (time, seq) order is exactly what a pure Rational
  // run would have used.
  const Rational at = now + delay;
  parked_.push_back(ParkedEvent{
      at, seq_++,
      Pending{Pending::Kind::kTimer, owner, owner, Packet{}, at, token}});
}

void Machine::deliver_ticks(Protocol& protocol, Tick time, const PendingTicks& flight,
                            std::uint64_t& delivered) {
  if (injector_ && crashed_ticks(flight.dst, time)) {
    ++fault_stats_.drops_crash;
    fault_stats_.events.push_back(FaultEvent{
        FaultEvent::Kind::kDropCrash, tick_rational(time), flight.dst, flight.src});
    return;
  }
  ++delivered;
  trace_->record(Delivery{flight.src, flight.dst, flight.packet.msg,
                          tick_rational(flight.send_start), tick_rational(time)});
  MachineContext ctx(*this, flight.dst, tick_rational(time), time);
  protocol.on_receive(ctx, flight.packet);
}

void Machine::run_tick_loop(Protocol& protocol, std::uint64_t max_events,
                            std::uint64_t& steps, std::uint64_t& delivered) {
  while (true) {
    if (!parked_.empty()) {
      // A handler armed an off-grid timer: finish the run on the Rational
      // engine. Transplanting at the loop top (never mid-handler) means no
      // event has popped since the park, so nothing is lost or reordered.
      transplant_to_rational();
      return;
    }
    if (tick_queue_.empty()) return;
    auto [time, event] = tick_queue_.pop();
    if (++steps > max_events) {
      throw LogicError("Machine::run: exceeded max_events; runaway protocol?");
    }
    switch (event.kind) {
      case Pending::Kind::kTimer: {
        if (injector_ && crashed_ticks(event.dst, time)) break;
        ++stats_.timers_fired;
        MachineContext ctx(*this, event.dst, tick_rational(time), time);
        protocol.on_timer(ctx, event.token);
        break;
      }
      case Pending::Kind::kFlight: {
        // Input-port serialization, integer image of the Rational loop:
        // the receive needs [arrival-1, arrival) exclusively.
        const Tick window_start =
            std::max(time - tick_q_, recv_free_ticks_[event.dst]);
        const Tick arrival = window_start + tick_q_;
        recv_free_ticks_[event.dst] = arrival;
        if (arrival > time) {
          ++stats_.receives_queued;
          PendingTicks requeued = event;
          requeued.kind = Pending::Kind::kFlightFinal;
          tick_queue_.push(arrival, seq_++, std::move(requeued));
          break;
        }
        deliver_ticks(protocol, time, event, delivered);
        break;
      }
      case Pending::Kind::kFlightFinal:
        deliver_ticks(protocol, time, event, delivered);
        break;
    }
  }
}

void Machine::transplant_to_rational() {
  tick_mode_ = false;
  stats_.tick_domain = false;
  // Every pending tick event crosses over with its original seq;
  // EventQueue::push_at_seq keeps later stamps strictly larger, so the
  // merged queue pops in the exact (time, seq) order of a pure Rational
  // run. Conversion is exact by the tick-domain invariant.
  tick_queue_.drain([this](Tick t, std::uint64_t seq, PendingTicks&& e) {
    queue_.push_at_seq(
        tick_rational(t), seq,
        Pending{e.kind, e.src, e.dst, e.packet, tick_rational(e.send_start),
                e.token});
  });
  for (ParkedEvent& p : parked_) {
    queue_.push_at_seq(std::move(p.time), p.seq, std::move(p.event));
  }
  parked_.clear();
  // Sends recorded so far join the Rational schedule in append order; the
  // end-of-run stable sort then orders the whole run as before.
  for (const TickSend& e : tick_sends_.sends()) {
    schedule_.add(e.src, e.dst, e.msg, tick_rational(e.tick));
  }
  tick_sends_.reset(0, 0);
  for (std::size_t p = 0; p < port_free_ticks_.size(); ++p) {
    port_free_[p] = tick_rational(port_free_ticks_[p]);
    recv_free_[p] = tick_rational(recv_free_ticks_[p]);
  }
  fold_tick_port_busy();
}

void Machine::fold_tick_port_busy() {
  for (std::size_t p = 0; p < port_busy_units_.size(); ++p) {
    if (port_busy_units_[p] == 0) continue;
    POSTAL_CHECK(port_busy_units_[p] <= static_cast<std::uint64_t>(INT64_MAX));
    // Assignment, not +=: a tick run accrues busy time only in the units.
    stats_.port_busy[p] = Rational(static_cast<std::int64_t>(port_busy_units_[p]));
    port_busy_units_[p] = 0;
  }
}

MachineResult Machine::run(Protocol& protocol, std::uint64_t max_events) {
  const std::uint64_t n = params_.n();
  port_free_.assign(n, Rational(0));
  recv_free_.assign(n, Rational(0));
  schedule_ = Schedule();
  queue_ = EventQueue<Pending>();
  stats_ = MachineStats();
  stats_.port_busy.assign(n, Rational(0));
  fault_stats_ = FaultStats();
  seq_ = 0;
  tick_mode_ = time_path_ == TimePath::kAuto && try_tick_setup(max_events);
  if (tick_mode_) {
    stats_.tick_domain = true;
    port_free_ticks_.assign(n, 0);
    recv_free_ticks_.assign(n, 0);
    port_busy_units_.assign(n, 0);
    tick_queue_.clear();
    parked_.clear();
    tick_sends_.reset(0, static_cast<ProcId>(n));
    to_rational_.reset(tick_q_);
  }
  if (injector_) {
    injector_->reset();
    for (ProcId p = 0; p < n; ++p) {
      const auto& c = injector_->crash_time(p);
      if (c.has_value()) {
        ++fault_stats_.crashes_applied;
        fault_stats_.events.push_back(FaultEvent{FaultEvent::Kind::kCrash, *c, p, p});
      }
    }
  }

  MachineResult result;
  result.trace = Trace(n, messages_, trace_mode_);
  trace_ = &result.trace;

  for (ProcId p = 0; p < n; ++p) {
    if (injector_ && injector_->crashed(p, Rational(0))) continue;
    MachineContext ctx(*this, p, Rational(0), 0);
    protocol.on_start(ctx);
  }

  std::uint64_t delivered = 0;
  std::uint64_t steps = 0;
  if (tick_mode_) {
    run_tick_loop(protocol, max_events, steps, delivered);
    // Falls through with a populated queue_ iff the run transplanted.
  }
  while (!queue_.empty()) {
    auto [time, event] = queue_.pop();
    if (++steps > max_events) {
      throw LogicError("Machine::run: exceeded max_events; runaway protocol?");
    }
    switch (event.kind) {
      case Pending::Kind::kTimer: {
        if (injector_ && injector_->crashed(event.dst, time)) break;
        ++stats_.timers_fired;
        MachineContext ctx(*this, event.dst, time);
        protocol.on_timer(ctx, event.token);
        break;
      }
      case Pending::Kind::kFlight: {
        // Input-port serialization: the receive needs the window
        // [arrival-1, arrival) exclusively. Simultaneous arrivals queue
        // FIFO; the paper's algorithms never collide, so for them
        // arrival == nominal time and this is a single comparison.
        const Rational window_start = rmax(time - Rational(1), recv_free_[event.dst]);
        const Rational arrival = window_start + Rational(1);
        recv_free_[event.dst] = arrival;
        if (arrival > time) {
          ++stats_.receives_queued;
          Pending requeued = event;
          requeued.kind = Pending::Kind::kFlightFinal;
          queue_.push(arrival, std::move(requeued));
          break;
        }
        deliver(protocol, time, event, delivered);
        break;
      }
      case Pending::Kind::kFlightFinal:
        deliver(protocol, time, event, delivered);
        break;
    }
  }
  if (tick_mode_) {
    // Every send is still a tick record: assemble the schedule already
    // sorted (sim/tick_schedule.hpp). A transplanted run sorts below.
    fold_tick_port_busy();
    schedule_ = assemble_tick_schedule(tick_sends_, tick_q_);
    tick_mode_ = false;
  } else {
    schedule_.sort();
  }

  stats_.events_processed = delivered;
  result.schedule = std::move(schedule_);
  result.stats = std::move(stats_);
  result.faults = std::move(fault_stats_);
  trace_ = nullptr;
  return result;
}

}  // namespace postal
