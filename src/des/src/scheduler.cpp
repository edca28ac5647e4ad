#include "hetscale/des/scheduler.hpp"

#include <limits>
#include <utility>

namespace hetscale::des {

namespace {

/// The scheduler whose loop is running on this thread: a root that fails
/// inside one of its events flags it (detail::note_root_failure).
thread_local Scheduler* t_running = nullptr;

class RunningScope {
 public:
  explicit RunningScope(Scheduler& scheduler)
      : previous_(std::exchange(t_running, &scheduler)) {}
  RunningScope(const RunningScope&) = delete;
  RunningScope& operator=(const RunningScope&) = delete;
  ~RunningScope() { t_running = previous_; }

 private:
  Scheduler* previous_;
};

}  // namespace

void detail::note_root_failure() noexcept {
  if (t_running == nullptr) return;
  // Events later than the failure's instant do not run; the rest of that
  // instant does, so every root failing at the earliest failure time fails
  // whichever partition (or sequential run) it is simulated in.
  t_running->root_failed_ = true;
  t_running->stop_after_ = t_running->now_;
}

Scheduler::~Scheduler() {
  for (auto handle : roots_) {
    if (handle) handle.destroy();
  }
}

void Scheduler::schedule_overlapping(const Event& event) {
  if (event_before(event, front_)) {
    queue_.push(front_);
    front_ = event;
  } else {
    queue_.push(event);
  }
  const std::uint64_t depth = queue_.size() + 1;  // + the front slot
  if (depth > max_queue_depth_) max_queue_depth_ = depth;
}

void Scheduler::spawn(Task<void> task) {
  HETSCALE_REQUIRE(task.valid(), "cannot spawn an empty task");
  auto handle = task.release();  // scheduler takes ownership of the frame
  roots_.push_back(handle);
  schedule_at(now_, handle);
}

void Scheduler::run() {
  const RunningScope running(*this);
  while (front_.handle && front_.time <= stop_after_) {
    // Advance the clock and lift the handle out of the front slot, then
    // refill the slot from the ladder before resuming — the resumed
    // coroutine usually schedules its next hop straight back into the (now
    // possibly empty) front slot.
    HETSCALE_CHECK(front_.time >= now_, "event queue went back in time");
    now_ = front_.time;
    ++events_processed_;
    const std::coroutine_handle<> handle = front_.handle;
    if (queue_.empty()) {
      front_.handle = nullptr;
    } else {
      front_ = queue_.pop_min();
    }
    handle.resume();
  }
  check_roots();
}

void Scheduler::run_window(SimTime end) {
  // Same loop as run(), bounded strictly below `end`: events exactly at the
  // window edge belong to the next window (the coordinator's lower bound is
  // inclusive, so the upper bound must be exclusive to partition the event
  // timeline without overlap).
  const RunningScope running(*this);
  while (front_.handle && front_.time < end && front_.time <= stop_after_) {
    HETSCALE_CHECK(front_.time >= now_, "event queue went back in time");
    now_ = front_.time;
    ++events_processed_;
    const std::coroutine_handle<> handle = front_.handle;
    if (queue_.empty()) {
      front_.handle = nullptr;
    } else {
      front_ = queue_.pop_min();
    }
    handle.resume();
  }
  if (root_failed_) rethrow_failed_root();
}

SimTime Scheduler::next_event_time() const {
  return front_.handle ? front_.time
                       : std::numeric_limits<SimTime>::infinity();
}

void Scheduler::rethrow_failed_root() {
  for (auto handle : roots_) {
    if (handle && handle.done() && handle.promise().exception) {
      std::rethrow_exception(handle.promise().exception);
    }
  }
}

void Scheduler::check_roots() {
  // A failed root wins over the suspended roots its early stop leaves.
  rethrow_failed_root();
  for (auto handle : roots_) {
    if (handle && !handle.done()) {
      throw DeadlockError(
          "simulation deadlock: a root process is still blocked after the "
          "event queue drained (e.g. a recv with no matching send)");
    }
  }
}

}  // namespace hetscale::des
