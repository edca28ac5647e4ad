// TimeBudget — an exact partition of a run's elapsed virtual time.
//
// compute_time_budget() sweeps the span store and classifies every instant
// of [0, elapsed] by what the lanes (ranks) were doing:
//
//   compute     >= 2 lanes executing compute spans in parallel
//   sequential  exactly 1 lane computing (everyone else blocked) — this is
//               the measured t0 of the paper's scalability model
//   fault       no lane computing, >= 1 lane charged to a fault span
//   comm        no lane computing or faulting, >= 1 lane in a comm span
//   residual    the remainder (start-up skew, uninstrumented time)
//
// A lane inside several spans at once takes the highest-priority one:
// fault > compute > comm > idle. Every bucket (residual included) is a
// sum of segment durations from the same sweep, so each is non-negative
// and the five buckets partition [0, elapsed]: they sum back to elapsed_s
// up to floating-point associativity — exactly, when span bounds are
// dyadic rationals.
//
// The sweep merges the store's per-lane buffers (each already in the
// lane's time order) instead of sorting the run's edges; every bucket
// still accumulates its segments in time order, so the sums are the ones
// a full sort would give, bit for bit.
#pragma once

#include <compare>

namespace hetscale::obs {

class SpanStore;

struct TimeBudget {
  double compute_s = 0.0;
  double comm_s = 0.0;
  double sequential_s = 0.0;
  double fault_s = 0.0;
  double residual_s = 0.0;
  double elapsed_s = 0.0;

  double total() const {
    return compute_s + comm_s + sequential_s + fault_s + residual_s;
  }

  /// Measured sequential time t0 of Theorem 1 (serialized computation).
  double measured_t0() const { return sequential_s; }
  /// Measured parallel overhead To (everything but computation).
  double measured_to() const { return comm_s + fault_s + residual_s; }

  TimeBudget& operator+=(const TimeBudget& other);

  auto operator<=>(const TimeBudget&) const = default;
};

/// Classify [0, elapsed] against the closed spans in `store`.
TimeBudget compute_time_budget(const SpanStore& store, double elapsed);

}  // namespace hetscale::obs
