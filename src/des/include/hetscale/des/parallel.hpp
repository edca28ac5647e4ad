// Conservative parallel execution of partitioned schedulers.
//
// The sequential Scheduler stays the unit of determinism; this layer runs
// several of them — one per OS thread — in lockstep windows, with one
// barrier rendezvous per window. Each round:
//
//   1. every partition publishes a lower bound on its future: the minimum
//      of its next pending event and the earliest arrival among the
//      cross-partition handoffs it emitted during its last window (the
//      `handoff_bound` hook);
//   2. barrier;
//   3. every thread folds the published bounds into the global minimum T.
//      If T is +infinity the simulation is quiescent and the loop ends.
//      Otherwise each partition drains its cross-partition inbox (the
//      `deliver` hook) and runs all events with time < T + lookahead.
//
// Delivery needs no barrier of its own: every handoff it posts arrives at
// or after its source's published bound, so after delivery every pending
// event is at or after T. Partitions leave the barrier at different
// moments, so one may start window k+1 while another still reads round k's
// state: the published bounds are double-buffered by round parity, and a
// source writes each window's handoffs to the buffer of that parity, which
// destinations drain only in the next round. Writing a buffer again needs
// the round after that, whose barrier every reader has passed.
//
// Safety rests on the lookahead contract: any event a partition executes at
// time t can only make another partition's state change at t + lookahead or
// later (for the vmpi machine, a message departing at t arrives no earlier
// than t plus the network's per-message overhead and link latency). Events
// inside one window therefore never need to cross partitions mid-window,
// and every partition's event stream is identical to the sequential
// schedule restricted to its ranks — the windows only chunk it.
//
// Determinism: the bounds fold the partitions' next events and the
// arrivals of the handoffs between them, so the window sequence is a pure
// function of the model and the partition count, never of thread timing.
// (Which messages cross partitions depends on the partition count; the
// results do not, because windows only chunk each partition's schedule.)
#pragma once

#include <atomic>
#include <cstdint>
#include <exception>
#include <functional>
#include <vector>

#include "hetscale/des/scheduler.hpp"

namespace hetscale::des {

/// A sense-reversing spin barrier for a handful of simulation threads.
/// Windows are short (often a few hundred events), so parking threads in
/// the kernel per round would dominate; spinning with a yield fallback
/// keeps the round-trip in the microsecond range.
class SpinBarrier {
 public:
  explicit SpinBarrier(int participants) : participants_(participants) {}
  SpinBarrier(const SpinBarrier&) = delete;
  SpinBarrier& operator=(const SpinBarrier&) = delete;

  /// Block until all participants have arrived. Full acquire/release
  /// rendezvous: every write made before arriving is visible to every
  /// participant after it returns.
  void arrive_and_wait();

  /// Rendezvous completed so far. Read it only when no participant is
  /// arriving (after the threads joined, or from a participant between
  /// two of its own arrivals).
  unsigned generation() const {
    return generation_.load(std::memory_order_acquire);
  }

 private:
  const int participants_;
  std::atomic<int> arrived_{0};
  std::atomic<unsigned> generation_{0};
};

/// Hooks the coordinator calls on each partition's own thread.
struct PartitionHooks {
  /// Called once at thread start, before the first window: bind any
  /// thread-local state and spawn this partition's root processes (their
  /// coroutine frames then come from the partition thread's pool).
  std::function<void(int partition)> bootstrap;

  /// Called just before each rendezvous: a lower bound on the arrival time
  /// of every cross-partition handoff this partition emitted since the
  /// previous call (+infinity if none). Null means the partition emits
  /// none. Only this partition's own state may be touched.
  std::function<SimTime(int partition)> handoff_bound;

  /// Called after each rendezvous that did not end the run, before the
  /// partition's window: deliver the cross-partition work the sources
  /// emitted during their previous window. Other partitions may already be
  /// running their next window, so it may read only what they wrote during
  /// the previous one (double-buffer by round parity), and may touch only
  /// this partition's own scheduler/state otherwise.
  std::function<void(int partition)> deliver;
};

/// What a conservative run did.
struct ConservativeRun {
  /// One slot per partition: the exception that stopped it (from the
  /// window loop or from Scheduler::check_roots() at quiescence), or null.
  std::vector<std::exception_ptr> errors;
  std::uint64_t windows = 0;     ///< windows run (rounds that advanced time)
  std::uint64_t rendezvous = 0;  ///< barrier rendezvous, one per round
};

/// Run `partitions` to global quiescence on one thread each, with windows
/// bounded by `lookahead_s` past the global lower bound. Any partition
/// failure stops every partition at the next round.
ConservativeRun run_conservative(const std::vector<Scheduler*>& partitions,
                                 double lookahead_s,
                                 const PartitionHooks& hooks);

}  // namespace hetscale::des
