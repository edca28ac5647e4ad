#include "hetscale/des/parallel.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <atomic>
#include <cmath>
#include <coroutine>
#include <functional>
#include <limits>
#include <memory>
#include <stdexcept>
#include <thread>
#include <utility>
#include <vector>

#include "hetscale/des/scheduler.hpp"

namespace hetscale::des {
namespace {

TEST(SpinBarrier, RendezvousPublishesPriorWrites) {
  constexpr int kThreads = 4;
  constexpr int kRounds = 50;
  SpinBarrier barrier(kThreads);
  std::atomic<int> counter{0};
  std::vector<std::thread> threads;
  std::atomic<bool> failed{false};
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&] {
      for (int round = 0; round < kRounds; ++round) {
        counter.fetch_add(1, std::memory_order_relaxed);
        barrier.arrive_and_wait();
        // Every participant's increment for this round must be visible.
        if (counter.load(std::memory_order_relaxed) < (round + 1) * kThreads) {
          failed.store(true);
        }
        barrier.arrive_and_wait();
      }
    });
  }
  for (auto& thread : threads) thread.join();
  EXPECT_FALSE(failed.load());
  EXPECT_EQ(counter.load(), kThreads * kRounds);
}

TEST(SpinBarrier, GenerationCountsRendezvous) {
  constexpr int kThreads = 3;
  constexpr int kRounds = 40;
  SpinBarrier barrier(kThreads);
  EXPECT_EQ(barrier.generation(), 0u);
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&] {
      for (int round = 0; round < kRounds; ++round) barrier.arrive_and_wait();
    });
  }
  for (auto& thread : threads) thread.join();
  EXPECT_EQ(barrier.generation(), static_cast<unsigned>(kRounds));
}

TEST(SchedulerWindow, NextEventTimeSeesPendingFront) {
  Scheduler sched;
  EXPECT_TRUE(std::isinf(sched.next_event_time()));
  sched.spawn([](Scheduler& s) -> Task<void> {
    co_await s.delay(2.0);
  }(sched));
  // spawn is lazy: the root's first resumption pends at the current time.
  EXPECT_DOUBLE_EQ(sched.next_event_time(), 0.0);
  sched.run_window(1.0);
  EXPECT_DOUBLE_EQ(sched.next_event_time(), 2.0);  // the delay remains
  sched.run_window(3.0);
  EXPECT_TRUE(std::isinf(sched.next_event_time()));
}

TEST(SchedulerWindow, RunWindowStopsStrictlyBeforeEnd) {
  Scheduler sched;
  std::vector<double> fired;
  auto proc = [](Scheduler& s, std::vector<double>& out,
                 double at) -> Task<void> {
    co_await s.delay(at);
    out.push_back(s.now());
  };
  sched.spawn(proc(sched, fired, 1.0));
  sched.spawn(proc(sched, fired, 2.0));
  sched.spawn(proc(sched, fired, 3.0));
  sched.run_window(2.0);  // half-open: events with time < 2.0
  EXPECT_EQ(fired, (std::vector<double>{1.0}));
  sched.run_window(std::numeric_limits<SimTime>::infinity());
  EXPECT_EQ(fired, (std::vector<double>{1.0, 2.0, 3.0}));
  sched.check_roots();  // all roots finished; must not throw
}

TEST(SchedulerWindow, WindowedRunMatchesSequentialRun) {
  auto model = [](Scheduler& s, std::vector<double>& out) {
    auto proc = [](Scheduler& sc, std::vector<double>& o, double step,
                   int hops) -> Task<void> {
      for (int i = 0; i < hops; ++i) {
        co_await sc.delay(step);
        o.push_back(sc.now());
      }
    };
    s.spawn(proc(s, out, 0.75, 5));
    s.spawn(proc(s, out, 1.0, 4));
  };

  Scheduler whole;
  std::vector<double> sequential;
  model(whole, sequential);
  whole.run();

  Scheduler windowed;
  std::vector<double> chunked;
  model(windowed, chunked);
  // Arbitrary uneven windows: chunking must not reorder anything.
  for (double end : {0.5, 1.6, 1.7, 3.0, 10.0}) windowed.run_window(end);
  EXPECT_EQ(sequential, chunked);
  EXPECT_EQ(whole.events_processed(), windowed.events_processed());
  EXPECT_EQ(whole.now(), windowed.now());  // bit-equal
}

TEST(RunConservative, DrivesPartitionsToQuiescence) {
  Scheduler a;
  Scheduler b;
  std::vector<double> seen_a;
  std::vector<double> seen_b;
  auto ticks = [](Scheduler& s, std::vector<double>& out, double step,
                  int hops) -> Task<void> {
    for (int i = 0; i < hops; ++i) {
      co_await s.delay(step);
      out.push_back(s.now());
    }
  };
  PartitionHooks hooks;
  hooks.bootstrap = [&](int partition) {
    if (partition == 0) {
      a.spawn(ticks(a, seen_a, 0.5, 6));
    } else {
      b.spawn(ticks(b, seen_b, 0.7, 4));
    }
  };
  hooks.deliver = [](int) {};
  const ConservativeRun run = run_conservative({&a, &b}, 0.25, hooks);
  ASSERT_EQ(run.errors.size(), 2u);
  EXPECT_EQ(run.errors[0], nullptr);
  EXPECT_EQ(run.errors[1], nullptr);
  EXPECT_EQ(seen_a.size(), 6u);
  EXPECT_EQ(seen_b.size(), 4u);
  EXPECT_DOUBLE_EQ(a.now(), 3.0);
  EXPECT_DOUBLE_EQ(b.now(), 2.8);
  EXPECT_GT(run.windows, 0u);
  // One rendezvous per round: every window's, plus the one that found
  // quiescence.
  EXPECT_EQ(run.rendezvous, run.windows + 1);
}

/// A one-way handoff channel from partition 0 to partition 1, built the way
/// the window protocol asks: the producer writes each window's handoffs to
/// the buffer of its round parity and reports their earliest arrival; the
/// consumer drains the other buffer at the top of the next round.
struct Channel {
  static constexpr double kIdle = std::numeric_limits<double>::infinity();
  std::array<std::vector<double>, 2> arrivals;  // by round parity
  int producer_parity = 0;
  int consumer_parity = 0;
  double emitted_bound = kIdle;

  void emit(double arrival) {
    arrivals[static_cast<std::size_t>(producer_parity)].push_back(arrival);
    emitted_bound = std::min(emitted_bound, arrival);
  }
  double handoff_bound(int partition) {
    return partition == 0 ? std::exchange(emitted_bound, kIdle) : kIdle;
  }
  /// Flips the calling partition's parity; the consumer gets the buffer
  /// the producer filled during the window that just ended.
  std::vector<double> deliver(int partition) {
    if (partition == 0) {
      producer_parity ^= 1;
      return {};
    }
    auto& buffer = arrivals[static_cast<std::size_t>(consumer_parity)];
    consumer_parity ^= 1;
    return std::exchange(buffer, {});
  }
  PartitionHooks hooks(std::function<void(int)> bootstrap,
                       std::function<void(double)> on_arrival) {
    PartitionHooks result;
    result.bootstrap = std::move(bootstrap);
    result.handoff_bound = [this](int p) { return handoff_bound(p); };
    result.deliver = [this, on_arrival](int p) {
      for (double arrival : deliver(p)) on_arrival(arrival);
    };
    return result;
  }
};

TEST(RunConservative, CrossPartitionHandoffDeliversInWindows) {
  // Partition 0 produces timestamps, partition 1 consumes them one window
  // later through the deliver hook — the vmpi machine's hand-off pattern
  // in miniature. The last handoff is emitted by the producer's last event,
  // so only its bound keeps the run from ending before it is delivered.
  Scheduler producer;
  Scheduler consumer;
  constexpr double kLookahead = 0.1;
  Channel channel;
  std::vector<double> delivered;  // observed by partition 1
  const PartitionHooks hooks = channel.hooks(
      [&](int partition) {
        if (partition != 0) return;
        producer.spawn([](Scheduler& s, Channel& out) -> Task<void> {
          for (int i = 0; i < 3; ++i) {
            co_await s.delay(1.0);
            out.emit(s.now() + kLookahead);
          }
        }(producer, channel));
      },
      [&](double arrival) { delivered.push_back(arrival); });
  const ConservativeRun run =
      run_conservative({&producer, &consumer}, kLookahead, hooks);
  EXPECT_EQ(run.errors[0], nullptr);
  EXPECT_EQ(run.errors[1], nullptr);
  EXPECT_EQ(delivered, (std::vector<double>{1.1, 2.1, 3.1}));
}

TEST(RunConservative, HandoffAloneBoundsTheWindow) {
  // The producer's only handoff leaves with its last event, so once it is
  // emitted no partition has a local event left: the window that wakes the
  // parked consumer is bounded by the handoff's arrival alone. Without it
  // the run would look quiescent and strand the consumer.
  struct Park {
    std::coroutine_handle<>& slot;
    bool await_ready() const noexcept { return false; }
    void await_suspend(std::coroutine_handle<> handle) { slot = handle; }
    void await_resume() const noexcept {}
  };
  Scheduler producer;
  Scheduler consumer;
  constexpr double kLookahead = 0.1;
  Channel channel;
  std::coroutine_handle<> parked;
  double woke_at = -1.0;
  const PartitionHooks hooks = channel.hooks(
      [&](int partition) {
        if (partition == 0) {
          producer.spawn([](Scheduler& s, Channel& out) -> Task<void> {
            co_await s.delay(1.0);
            out.emit(s.now() + kLookahead);
          }(producer, channel));
        } else {
          consumer.spawn([](Scheduler& s, std::coroutine_handle<>& slot,
                            double& woke) -> Task<void> {
            co_await Park{slot};
            woke = s.now();
          }(consumer, parked, woke_at));
        }
      },
      [&](double arrival) {
        consumer.schedule_at(arrival, std::exchange(parked, nullptr));
      });
  const ConservativeRun run =
      run_conservative({&producer, &consumer}, kLookahead, hooks);
  EXPECT_EQ(run.errors[0], nullptr);
  EXPECT_EQ(run.errors[1], nullptr);
  EXPECT_DOUBLE_EQ(woke_at, 1.1);
  EXPECT_DOUBLE_EQ(consumer.now(), 1.1);
  // Windows start at 0 (both roots), 1.0 (the emit) and 1.1 (the wake).
  EXPECT_EQ(run.windows, 3u);
  EXPECT_EQ(run.rendezvous, 4u);
}

/// A bare coroutine whose exception escapes resume() instead of being
/// parked in a promise the way Task roots do: the one way an event can
/// throw out of Scheduler::run_window, i.e. fail a partition mid-window.
struct EscapingFailure {
  struct promise_type {
    EscapingFailure get_return_object() {
      return {std::coroutine_handle<promise_type>::from_promise(*this)};
    }
    std::suspend_always initial_suspend() noexcept { return {}; }
    std::suspend_always final_suspend() noexcept { return {}; }
    void return_void() {}
    void unhandled_exception() { throw; }
  };
  std::coroutine_handle<promise_type> handle;
};

EscapingFailure throw_when_resumed() {
  throw std::runtime_error("partition blew up mid-window");
  co_return;
}

TEST(RunConservative, FailureMidWindowStopsEveryPartitionAtOneRound) {
  // Partition 2 throws out of an event inside a window while every
  // partition still has plenty of events. All of them must leave at the
  // same rendezvous: each healthy one takes part in exactly as many rounds
  // as the run made, runs exactly as many windows, and runs nothing after
  // the failing window.
  constexpr int kPartitions = 4;
  constexpr double kFailAt = 5.05;
  constexpr double kLookahead = 0.5;
  std::vector<std::unique_ptr<Scheduler>> owned;
  std::vector<Scheduler*> schedulers;
  for (int p = 0; p < kPartitions; ++p) {
    owned.push_back(std::make_unique<Scheduler>());
    schedulers.push_back(owned.back().get());
  }
  const EscapingFailure failure = throw_when_resumed();
  std::array<int, kPartitions> rounds{};   // handoff_bound calls
  std::array<int, kPartitions> windows{};  // deliver calls
  PartitionHooks hooks;
  hooks.bootstrap = [&](int partition) {
    Scheduler& s = *schedulers[static_cast<std::size_t>(partition)];
    s.spawn([](Scheduler& sc, double step) -> Task<void> {
      for (int i = 0; i < 1000; ++i) co_await sc.delay(step);
    }(s, 0.1 + 0.07 * partition));
    if (partition == 2) s.schedule_at(kFailAt, failure.handle);
  };
  hooks.handoff_bound = [&](int partition) {
    ++rounds[static_cast<std::size_t>(partition)];
    return std::numeric_limits<double>::infinity();
  };
  hooks.deliver = [&](int partition) {
    ++windows[static_cast<std::size_t>(partition)];
  };
  const ConservativeRun run = run_conservative(schedulers, kLookahead, hooks);
  failure.handle.destroy();
  ASSERT_NE(run.errors[2], nullptr);
  EXPECT_THROW(std::rethrow_exception(run.errors[2]), std::runtime_error);
  for (int p = 0; p < kPartitions; ++p) {
    const auto slot = static_cast<std::size_t>(p);
    EXPECT_EQ(static_cast<std::uint64_t>(windows[slot]), run.windows)
        << "partition " << p;
    // Nothing past the failing window ran anywhere.
    EXPECT_LE(schedulers[slot]->now(), kFailAt + kLookahead)
        << "partition " << p;
    if (p == 2) continue;
    // The unfinished tickers surface as deadlocks at the final check.
    EXPECT_THROW(std::rethrow_exception(run.errors[slot]), DeadlockError)
        << "partition " << p;
    EXPECT_EQ(static_cast<std::uint64_t>(rounds[slot]), run.rendezvous)
        << "partition " << p;
    EXPECT_GE(schedulers[slot]->next_event_time(), kFailAt)
        << "partition " << p;
  }
  EXPECT_EQ(schedulers[2]->now(), kFailAt);
  // The failed partition publishes no bound, but still arrives once more.
  EXPECT_EQ(static_cast<std::uint64_t>(rounds[2]), run.rendezvous - 1);
  EXPECT_EQ(run.rendezvous, run.windows + 1);
}

TEST(RunConservative, PartitionFailureReachesItsErrorSlot) {
  Scheduler healthy;
  Scheduler faulty;
  PartitionHooks hooks;
  hooks.bootstrap = [&](int partition) {
    if (partition == 0) {
      healthy.spawn([](Scheduler& s) -> Task<void> {
        for (int i = 0; i < 100; ++i) co_await s.delay(1.0);
      }(healthy));
    } else {
      faulty.spawn([](Scheduler& s) -> Task<void> {
        co_await s.delay(5.0);
        throw std::runtime_error("partition blew up");
      }(faulty));
    }
  };
  hooks.deliver = [](int) {};
  const ConservativeRun run =
      run_conservative({&healthy, &faulty}, 0.5, hooks);
  ASSERT_EQ(run.errors.size(), 2u);
  EXPECT_EQ(run.errors[0], nullptr);
  ASSERT_NE(run.errors[1], nullptr);
  EXPECT_THROW(std::rethrow_exception(run.errors[1]), std::runtime_error);
}

TEST(RunConservative, SuspendedRootReportsDeadlock) {
  // A root that suspends forever (its continuation handle is dropped) can
  // never finish: quiescence must surface DeadlockError for that
  // partition, exactly as the sequential Scheduler::run() would.
  struct Never {
    bool await_ready() const noexcept { return false; }
    void await_suspend(std::coroutine_handle<>) const noexcept {}
    void await_resume() const noexcept {}
  };
  Scheduler stuck;
  Scheduler fine;
  PartitionHooks hooks;
  hooks.bootstrap = [&](int partition) {
    if (partition == 0) {
      stuck.spawn([](Scheduler&) -> Task<void> { co_await Never{}; }(stuck));
    } else {
      fine.spawn([](Scheduler& s) -> Task<void> {
        co_await s.delay(1.0);
      }(fine));
    }
  };
  hooks.deliver = [](int) {};
  const ConservativeRun run = run_conservative({&stuck, &fine}, 1.0, hooks);
  ASSERT_NE(run.errors[0], nullptr);
  EXPECT_THROW(std::rethrow_exception(run.errors[0]), DeadlockError);
  EXPECT_EQ(run.errors[1], nullptr);
}

}  // namespace
}  // namespace hetscale::des
