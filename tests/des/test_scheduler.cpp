#include "hetscale/des/scheduler.hpp"

#include <gtest/gtest.h>

#include <stdexcept>
#include <vector>

#include "hetscale/support/error.hpp"

namespace hetscale::des {
namespace {

TEST(Scheduler, ClockStartsAtZero) {
  Scheduler sched;
  EXPECT_DOUBLE_EQ(sched.now(), 0.0);
}

TEST(Scheduler, DelayAdvancesVirtualTime) {
  Scheduler sched;
  double observed = -1.0;
  sched.spawn([](Scheduler& s, double& out) -> Task<void> {
    co_await s.delay(2.5);
    out = s.now();
  }(sched, observed));
  sched.run();
  EXPECT_DOUBLE_EQ(observed, 2.5);
  EXPECT_DOUBLE_EQ(sched.now(), 2.5);
}

TEST(Scheduler, EventsFireInTimeOrderAcrossProcesses) {
  Scheduler sched;
  std::vector<int> order;
  auto proc = [](Scheduler& s, std::vector<int>& out, double delay,
                 int id) -> Task<void> {
    co_await s.delay(delay);
    out.push_back(id);
  };
  sched.spawn(proc(sched, order, 3.0, 3));
  sched.spawn(proc(sched, order, 1.0, 1));
  sched.spawn(proc(sched, order, 2.0, 2));
  sched.run();
  EXPECT_EQ(order, (std::vector<int>{1, 2, 3}));
}

TEST(Scheduler, EqualTimesPreserveScheduleOrder) {
  Scheduler sched;
  std::vector<int> order;
  auto proc = [](Scheduler& s, std::vector<int>& out, int id) -> Task<void> {
    co_await s.delay(1.0);
    out.push_back(id);
  };
  for (int id = 0; id < 8; ++id) sched.spawn(proc(sched, order, id));
  sched.run();
  EXPECT_EQ(order, (std::vector<int>{0, 1, 2, 3, 4, 5, 6, 7}));
}

TEST(Scheduler, ZeroDelayStillYields) {
  Scheduler sched;
  std::vector<int> order;
  sched.spawn([](Scheduler& s, std::vector<int>& out) -> Task<void> {
    out.push_back(1);
    co_await s.delay(0.0);
    out.push_back(3);
  }(sched, order));
  sched.spawn([](Scheduler&, std::vector<int>& out) -> Task<void> {
    out.push_back(2);
    co_return;
  }(sched, order));
  sched.run();
  EXPECT_EQ(order, (std::vector<int>{1, 2, 3}));
}

TEST(Scheduler, NegativeDelayRejected) {
  Scheduler sched;
  sched.spawn([](Scheduler& s) -> Task<void> {
    EXPECT_THROW(s.delay(-1.0), PreconditionError);
    co_return;
  }(sched));
  sched.run();
}

TEST(Scheduler, ResumeAtPastRejected) {
  Scheduler sched;
  sched.spawn([](Scheduler& s) -> Task<void> {
    co_await s.delay(5.0);
    EXPECT_THROW(s.resume_at(1.0), PreconditionError);
  }(sched));
  sched.run();
}

TEST(Scheduler, CountsProcessedEvents) {
  Scheduler sched;
  sched.spawn([](Scheduler& s) -> Task<void> {
    for (int i = 0; i < 10; ++i) co_await s.delay(1.0);
  }(sched));
  sched.run();
  // 1 spawn resumption + 10 delays.
  EXPECT_EQ(sched.events_processed(), 11u);
}

TEST(Scheduler, ManyProcessesManyEvents) {
  Scheduler sched;
  double last = 0.0;
  for (int i = 0; i < 100; ++i) {
    sched.spawn([](Scheduler& s, int id, double& out) -> Task<void> {
      for (int k = 0; k < 50; ++k) co_await s.delay(0.5 + 0.01 * id);
      out = s.now();
    }(sched, i, last));
  }
  sched.run();
  EXPECT_NEAR(last, 50 * (0.5 + 0.01 * 99), 1e-9);
}

TEST(Scheduler, RunWithNoWorkIsNoop) {
  Scheduler sched;
  sched.run();
  EXPECT_DOUBLE_EQ(sched.now(), 0.0);
}

TEST(Scheduler, TracksQueueDepthHighWaterMark) {
  Scheduler sched;
  EXPECT_EQ(sched.max_queue_depth(), 0u);
  // 5 processes pending at once right after the spawns; each then drains
  // one event at a time, so the high-water mark is the spawn burst.
  for (int i = 0; i < 5; ++i) {
    sched.spawn([](Scheduler& s) -> Task<void> {
      co_await s.delay(1.0);
      co_await s.delay(1.0);
    }(sched));
  }
  sched.run();
  EXPECT_EQ(sched.max_queue_depth(), 5u);
}

TEST(Scheduler, FailedRootStopsTheRunAtOnce) {
  // Root 0 ticks on long after root 1 throws at t = 3: the run stops at
  // the failure and surfaces it, not the deadlock the stop leaves behind.
  Scheduler sched;
  int ticks = 0;
  sched.spawn([](Scheduler& s, int& count) -> Task<void> {
    for (int i = 0; i < 100; ++i) {
      co_await s.delay(1.0);
      ++count;
    }
  }(sched, ticks));
  sched.spawn([](Scheduler& s) -> Task<void> {
    co_await s.delay(3.0);
    throw std::runtime_error("rank program failed");
  }(sched));
  EXPECT_THROW(sched.run(), std::runtime_error);
  EXPECT_EQ(sched.now(), 3.0);
  EXPECT_LE(ticks, 3);
}

TEST(Scheduler, FailureInstantRunsToItsEndAndReportsTheFirstRoot) {
  // Root 1 fails first at t = 3; root 0 reaches t = 3 through a later
  // event and fails there too. The run finishes the instant, so both fail,
  // and reports root 0, the first in spawn order; nothing after t = 3 runs.
  Scheduler sched;
  bool ran_later = false;
  sched.spawn([](Scheduler& s) -> Task<void> {
    co_await s.delay(1.0);
    co_await s.delay(2.0);
    throw std::runtime_error("root 0");
  }(sched));
  sched.spawn([](Scheduler& s) -> Task<void> {
    co_await s.delay(3.0);
    throw std::runtime_error("root 1");
  }(sched));
  sched.spawn([](Scheduler& s, bool& later) -> Task<void> {
    co_await s.delay(4.0);
    later = true;
  }(sched, ran_later));
  try {
    sched.run();
    FAIL() << "expected a root failure";
  } catch (const std::runtime_error& error) {
    EXPECT_STREQ(error.what(), "root 0");
  }
  EXPECT_EQ(sched.now(), 3.0);
  EXPECT_FALSE(ran_later);
}

}  // namespace
}  // namespace hetscale::des
