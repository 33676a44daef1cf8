// Combining (reduction) in the postal model -- the problem of [6] (Cidon,
// Gopal, Kutten) that the paper credits as the source of its Fibonacci-tree
// approach, and one of the Section 5 "other problems".
//
// Every processor p holds a private contribution x_p; processor p_0 must
// learn x_0 (+) x_1 (+) ... (+) x_{n-1} for an associative, commutative
// operator (+). Partial results stay atomic (combining does not grow
// messages), so the problem is exactly time-reversed broadcast: running
// Algorithm BCAST's schedule backwards turns every receive into a send and
// yields a combine schedule that finishes in f_lambda(n) -- optimal, since
// a reduction schedule reversed is a broadcast schedule and Lemma 5 bounds
// those below by f_lambda(n).
//
// Schedule encoding: message id p is processor p's partial result at the
// moment it sends (its own contribution combined with everything it
// received earlier). validate_reduce checks combine-readiness and closure.
#pragma once

#include "model/params.hpp"
#include "sched/port_check.hpp"
#include "sched/schedule.hpp"
#include "support/rational.hpp"

namespace postal {

/// The time-reversed-BCAST reduction schedule: every non-root processor
/// sends exactly one partial result; p_0 holds the full combination at
/// completion. Sorted by time.
[[nodiscard]] Schedule reduce_schedule(const PostalParams& params);

/// Exact completion time: f_lambda(n) (0 for n == 1), matching broadcast.
[[nodiscard]] Rational predict_reduce(const PostalParams& params);

/// Result of checking a reduction schedule; completion is the time p_0
/// holds the full combination.
using ReduceReport = PortCheckReport;

/// Validate any reduction schedule for MPS(n, lambda) with root p_0:
///  * port exclusivity (send and receive, as in the postal model);
///  * single-shot: every non-root sends exactly once, the root never sends;
///  * combine-readiness: a processor sends only after every partial result
///    addressed to it has fully arrived;
///  * closure: the root's final combined set is all n contributions.
[[nodiscard]] ReduceReport validate_reduce(const Schedule& schedule,
                                           const PostalParams& params);

}  // namespace postal
