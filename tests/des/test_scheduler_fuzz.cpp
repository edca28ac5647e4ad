// Differential fuzz of des::Scheduler against a reference (time, sequence)
// heap.
//
// The queue tests in test_event_queue.cpp drive LadderEventQueue directly
// and always push at or after the last pop. Behind the scheduler the
// ladder also sees pushes that are only "not in the past": the front slot
// can hold an event earlier than the ladder's epoch start (a new earliest
// event swaps into the slot right after a rebuild), and an event scheduled
// between the two then lands before the epoch. Here every resumed event
// schedules a few more at seeded times from `now` on — many of them inside
// that gap, across many rebuilds — and the pop order must equal the
// reference heap's, event for event.
#include <gtest/gtest.h>

#include <coroutine>
#include <cstdint>
#include <exception>
#include <queue>
#include <vector>

#include "hetscale/des/scheduler.hpp"
#include "hetscale/support/rng.hpp"

namespace hetscale::des {
namespace {

class Driver;

/// A bare coroutine that reports its id to the driver when resumed.
struct Probe {
  struct promise_type {
    Probe get_return_object() {
      return Probe{std::coroutine_handle<promise_type>::from_promise(*this)};
    }
    std::suspend_always initial_suspend() noexcept { return {}; }
    std::suspend_always final_suspend() noexcept { return {}; }
    void return_void() noexcept {}
    void unhandled_exception() noexcept { std::terminate(); }
  };
  std::coroutine_handle<promise_type> handle;
};

Probe probe(Driver& driver, std::uint64_t id);

class Driver {
 public:
  Driver(std::uint64_t seed, Scheduler& scheduler)
      : rng_(seed), scheduler_(scheduler) {}
  Driver(const Driver&) = delete;
  Driver& operator=(const Driver&) = delete;

  ~Driver() {
    for (auto handle : frames_) handle.destroy();
  }

  void schedule(double time) {
    const std::uint64_t id = frames_.size();
    frames_.push_back(probe(*this, id).handle);
    reference_.push(Expected{time, sequence_++, id});
    scheduler_.schedule_at(time, frames_.back());
  }

  /// Called from inside the resumed probe `id`.
  void fired(std::uint64_t id) {
    ++fired_;
    if (reference_.empty()) {
      ++mismatches_;
      return;
    }
    const Expected want = reference_.top();
    reference_.pop();
    if (want.id != id || want.time != scheduler_.now()) ++mismatches_;
    if (frames_.size() >= kMaxEvents) return;
    // Keep a few dozen events pending — across the ladder's linear-scan
    // limit, so it keeps rebuilding epochs — with bursts of successors.
    const std::size_t pending = reference_.size();
    const std::int64_t most = pending < 12 ? 4 : pending > 48 ? 0 : 2;
    const std::int64_t successors = rng_.uniform_int(0, most);
    for (std::int64_t i = 0; i < successors; ++i) schedule(next_time());
  }

  std::uint64_t fired_count() const { return fired_; }
  std::uint64_t mismatches() const { return mismatches_; }
  bool drained() const { return reference_.empty(); }

  static constexpr std::size_t kMaxEvents = 20000;

 private:
  struct Expected {
    double time;
    std::uint64_t sequence;
    std::uint64_t id;
  };
  struct Later {
    bool operator()(const Expected& a, const Expected& b) const {
      if (a.time != b.time) return a.time > b.time;
      return a.sequence > b.sequence;
    }
  };

  double next_time() {
    const double now = scheduler_.now();
    switch (rng_.uniform_int(0, 5)) {
      case 0: return now;                                      // a tie
      case 1: return now + 0.125 * static_cast<double>(rng_.uniform_int(1, 8));
      case 2: return now + rng_.uniform(0.0, 0.05);            // just ahead
      case 3: return now + rng_.uniform(0.0, 1.0);
      case 4: return now + rng_.uniform(0.0, 4.0);             // far
      default: return now + rng_.uniform(0.0, 0.3);
    }
  }

  Rng rng_;
  Scheduler& scheduler_;
  std::vector<std::coroutine_handle<>> frames_;
  std::priority_queue<Expected, std::vector<Expected>, Later> reference_;
  std::uint64_t sequence_ = 0;
  std::uint64_t fired_ = 0;
  std::uint64_t mismatches_ = 0;
};

Probe probe(Driver& driver, std::uint64_t id) {
  driver.fired(id);
  co_return;
}

TEST(SchedulerFuzz, PopOrderMatchesReferenceHeapAcrossRebuilds) {
  for (std::uint64_t seed = 1; seed <= 40; ++seed) {
    QueueTelemetry telemetry;
    Scheduler scheduler;
    scheduler.bind_telemetry(&telemetry);
    Driver driver(seed, scheduler);
    for (int i = 0; i < 24; ++i) {
      driver.schedule(0.05 * static_cast<double>(i % 7));
    }
    scheduler.run();
    EXPECT_EQ(driver.mismatches(), 0u) << "seed " << seed;
    EXPECT_TRUE(driver.drained()) << "seed " << seed;
    EXPECT_EQ(driver.fired_count(), scheduler.events_processed())
        << "seed " << seed;
    // The run really exercised the ladder, not just the front slot.
    EXPECT_GT(telemetry.rebuilds, 10u) << "seed " << seed;
  }
}

}  // namespace
}  // namespace hetscale::des
