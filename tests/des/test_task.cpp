#include "hetscale/des/task.hpp"

#include <gtest/gtest.h>

#include <stdexcept>
#include <vector>

#include "hetscale/des/frame_pool.hpp"
#include "hetscale/des/scheduler.hpp"

namespace hetscale::des {
namespace {

Task<int> return_forty_two() { co_return 42; }

Task<int> add(int a, int b) { co_return a + b; }

Task<int> nested_sum() {
  const int x = co_await add(1, 2);
  const int y = co_await add(x, 10);
  co_return y;
}

Task<void> throws_logic_error() {
  throw std::logic_error("boom");
  co_return;  // unreachable; makes this a coroutine
}

Task<int> rethrows_from_child() {
  co_await throws_logic_error();
  co_return 1;
}

Task<void> drive(std::vector<int>& out) {
  out.push_back(co_await return_forty_two());
  out.push_back(co_await nested_sum());
}

TEST(Task, ValueFlowsThroughCoAwaitChains) {
  Scheduler sched;
  std::vector<int> out;
  sched.spawn(drive(out));
  sched.run();
  ASSERT_EQ(out.size(), 2u);
  EXPECT_EQ(out[0], 42);
  EXPECT_EQ(out[1], 13);
}

TEST(Task, LazyUntilAwaited) {
  bool started = false;
  auto lazy = [&]() -> Task<void> {
    started = true;
    co_return;
  };
  Task<void> task = lazy();
  EXPECT_FALSE(started);
  EXPECT_TRUE(task.valid());
  EXPECT_FALSE(task.done());
  Scheduler sched;
  sched.spawn(std::move(task));
  EXPECT_FALSE(started);  // still lazy: starts when the scheduler runs
  sched.run();
  EXPECT_TRUE(started);
}

TEST(Task, ExceptionsPropagateThroughAwait) {
  Scheduler sched;
  sched.spawn([]() -> Task<void> {
    EXPECT_THROW(co_await rethrows_from_child(), std::logic_error);
  }());
  sched.run();
}

TEST(Task, RootExceptionSurfacesFromRun) {
  Scheduler sched;
  sched.spawn(throws_logic_error());
  EXPECT_THROW(sched.run(), std::logic_error);
}

TEST(Task, MoveTransfersOwnership) {
  Task<int> a = return_forty_two();
  Task<int> b = std::move(a);
  EXPECT_FALSE(a.valid());  // NOLINT(bugprone-use-after-move): asserting it
  EXPECT_TRUE(b.valid());
}

TEST(Task, DestroyWithoutRunningDoesNotLeakOrCrash) {
  { Task<int> t = return_forty_two(); }  // never awaited
  SUCCEED();
}

TEST(FramePool, ParksEveryFrameUpToTheLivePeak) {
  // A run that holds more frames of one size at once than the pool's floor
  // cap (1024 per size) gets all of them back on its freelist when they
  // complete, so the next round allocates none of them from the heap.
  constexpr std::size_t kFrames = 3000;
  constexpr std::size_t kSize = 2000;  // the largest pooled slot size
  std::vector<void*> frames;
  frames.reserve(kFrames);
  for (std::size_t i = 0; i < kFrames; ++i) {
    frames.push_back(detail::frame_alloc(kSize));
  }
  const std::size_t parked = detail::frame_pool_parked();
  for (void* frame : frames) detail::frame_free(frame, kSize);
  EXPECT_EQ(detail::frame_pool_parked() - parked, kFrames);
  // Reuse drains the freelist instead of the heap.
  for (std::size_t i = 0; i < kFrames; ++i) {
    frames[i] = detail::frame_alloc(kSize);
  }
  EXPECT_EQ(detail::frame_pool_parked(), parked);
  for (void* frame : frames) detail::frame_free(frame, kSize);
}

TEST(FramePool, NewLivePeakTrimsWhatALargerRunParked) {
  // A long-lived thread that once parked a large run's frames keeps at most
  // the floor cap (1024 per size) of them once the next run resets the peak.
  constexpr std::size_t kFrames = 3000;
  constexpr std::size_t kSize = 2000;
  std::vector<void*> frames;
  frames.reserve(kFrames);
  for (std::size_t i = 0; i < kFrames; ++i) {
    frames.push_back(detail::frame_alloc(kSize));
  }
  for (void* frame : frames) detail::frame_free(frame, kSize);
  const std::size_t parked = detail::frame_pool_parked();
  detail::frame_pool_reset_live_peak();
  ASSERT_LT(detail::frame_pool_live(), std::size_t{1024});
  EXPECT_GE(parked - detail::frame_pool_parked(), kFrames - 1024);
}

}  // namespace
}  // namespace hetscale::des
