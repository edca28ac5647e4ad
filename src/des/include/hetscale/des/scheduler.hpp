// The discrete-event scheduler: a virtual clock plus a time-ordered queue of
// coroutine resumptions.
//
// Determinism: events at equal virtual times are executed in the order they
// were scheduled (a monotonically increasing sequence number breaks ties),
// and everything runs on the calling thread — two runs of the same model are
// bit-identical.
//
// Hot path: the next event to run is held in a dedicated front slot, so the
// ubiquitous schedule-one/pop-one rhythm of `delay(dt)` never touches the
// backing ladder queue at all; only genuinely overlapping events spill into
// LadderEventQueue (event_queue.hpp).
#pragma once

#include <coroutine>
#include <cstdint>
#include <limits>
#include <vector>

#include "hetscale/des/event_queue.hpp"
#include "hetscale/des/task.hpp"
#include "hetscale/support/error.hpp"

namespace hetscale::des {

/// The event queue drained while a root process was still suspended — the
/// model deadlocked (e.g. a recv with no matching send). A distinct type so
/// layers above can catch it and attach model-level diagnosis (vmpi reports
/// which ranks are blocked on which mailboxes).
class DeadlockError : public ModelError {
 public:
  using ModelError::ModelError;
};

class Scheduler {
 public:
  Scheduler() = default;
  Scheduler(const Scheduler&) = delete;
  Scheduler& operator=(const Scheduler&) = delete;
  ~Scheduler();

  /// Current virtual time.
  SimTime now() const { return now_; }

  /// Total resumption events processed so far (for tests and micro benches).
  std::uint64_t events_processed() const { return events_processed_; }

  /// Bind optional telemetry for the backing ladder queue (see
  /// des/telemetry.hpp). The front-slot fast path is not counted — it never
  /// touches the ladder; the counters cover the overlap traffic that does.
  void bind_telemetry(QueueTelemetry* telemetry) {
    queue_.bind_telemetry(telemetry);
  }

  /// High-water mark of the pending-event queue depth. Only the overlap
  /// path maintains max_queue_depth_, so a run that never held two pending
  /// events reports depth 1 (anything scheduled at all means depth >= 1).
  std::uint64_t max_queue_depth() const {
    if (max_queue_depth_ == 0 && next_sequence_ > 0) return 1;
    return max_queue_depth_;
  }

  /// Enqueue a coroutine resumption at absolute virtual time `t >= now()`.
  /// Fast path: when nothing is pending (the schedule-one/pop-one rhythm of
  /// `delay`), the event goes straight into the front slot and the ladder is
  /// never touched. Only that path is inline — folding the ladder push into
  /// every coroutine resume site bloats the actors enough to dominate the
  /// event loop, so the overlap case stays an out-of-line call.
  void schedule_at(SimTime t, std::coroutine_handle<> handle) {
    HETSCALE_REQUIRE(t >= now_, "cannot schedule an event in the virtual past");
    HETSCALE_REQUIRE(handle != nullptr, "cannot schedule a null coroutine");
    if (!front_.handle) {
      // An empty front slot implies an empty ladder (pop refills the slot
      // before draining it), so the new event is the only one pending.
      front_ = Event{t, next_sequence_++, handle};
      return;
    }
    schedule_overlapping(Event{t, next_sequence_++, handle});
  }

  /// Register `task` as a root process; it starts when run() reaches the
  /// current virtual time. Exceptions escaping a root are captured and
  /// re-thrown by run().
  void spawn(Task<void> task);

  /// Run until the event queue drains or a root process fails. A failed
  /// root stops the run once the events of its failure's instant have run
  /// (the surviving processes stay suspended), and the exception of the
  /// first root in spawn order that failed then is re-thrown; otherwise throws
  /// DeadlockError if any root is still suspended when the queue empties.
  void run();

  /// Conservative-parallel building block: run every pending event with
  /// time strictly before `end`, then stop (the clock stays at the last
  /// executed event, never advancing to `end` itself). Root liveness is NOT
  /// checked here — a partition legitimately idles between windows while
  /// its ranks wait on cross-partition messages; call check_roots() once
  /// the coordinator decides the whole simulation is quiescent. A root
  /// that fails stops the window as it stops run(), and the exception is
  /// re-thrown with now() left at the failure's instant.
  void run_window(SimTime end);

  /// Virtual time of the next pending event, or +infinity when the queue is
  /// empty. The coordinator folds these across partitions to pick the next
  /// safe window bound.
  SimTime next_event_time() const;

  /// The termination checks factored out of run(): rethrows the first
  /// captured root exception (in spawn order), and otherwise throws
  /// DeadlockError if any root is still suspended.
  void check_roots();

  /// Awaitable: suspend for `dt >= 0` seconds of virtual time.
  auto delay(SimTime dt) {
    HETSCALE_REQUIRE(dt >= 0.0, "delay must be non-negative");
    return ResumeAtAwaiter{*this, now_ + dt};
  }

  /// Awaitable: suspend until absolute virtual time `t >= now()`.
  auto resume_at(SimTime t) {
    HETSCALE_REQUIRE(t >= now_, "cannot resume in the virtual past");
    return ResumeAtAwaiter{*this, t};
  }

 private:
  struct ResumeAtAwaiter {
    Scheduler& scheduler;
    SimTime at;
    bool await_ready() const noexcept { return false; }
    void await_suspend(std::coroutine_handle<> handle) {
      scheduler.schedule_at(at, handle);
    }
    void await_resume() const noexcept {}
  };

  using RootHandle = std::coroutine_handle<Task<void>::promise_type>;

  friend void detail::note_root_failure() noexcept;

  /// Slow path of schedule_at: an event arrives while another is pending.
  void schedule_overlapping(const Event& event);

  /// Rethrow the first failed root's exception (spawn order), if any.
  /// Every failed root failed at the same instant, stop_after_.
  void rethrow_failed_root();

  SimTime now_ = 0.0;
  std::uint64_t next_sequence_ = 0;
  std::uint64_t events_processed_ = 0;
  std::uint64_t max_queue_depth_ = 0;
  bool root_failed_ = false;  ///< a root process exited with an exception
  /// Events later than this do not run: the instant a root failed at.
  SimTime stop_after_ = std::numeric_limits<SimTime>::infinity();
  Event front_{};           ///< next event to run; empty iff handle is null
  LadderEventQueue queue_;  ///< everything behind the front slot
  std::vector<RootHandle> roots_;
};

}  // namespace hetscale::des
