#include "hetscale/run/runner.hpp"

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <cstdint>
#include <numeric>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "hetscale/scal/combination.hpp"
#include "hetscale/scal/iso_solver.hpp"
#include "hetscale/scenarios/paper.hpp"

namespace hetscale::run {
namespace {

TEST(Runner, MapReturnsResultsInRequestOrder) {
  Runner runner(4);
  EXPECT_EQ(runner.jobs(), 4);
  const auto out = runner.map(
      64, [](std::size_t i) { return static_cast<std::int64_t>(i * i); });
  ASSERT_EQ(out.size(), 64u);
  for (std::size_t i = 0; i < out.size(); ++i) {
    EXPECT_EQ(out[i], static_cast<std::int64_t>(i * i));
  }
}

TEST(Runner, SingleJobRunsInlineOnTheCaller) {
  Runner runner(1);
  const auto caller = std::this_thread::get_id();
  std::vector<std::thread::id> seen(8);
  runner.run_indexed(8, [&](std::size_t i) {
    seen[i] = std::this_thread::get_id();
    EXPECT_EQ(Runner::current(), &runner);
  });
  for (const auto id : seen) EXPECT_EQ(id, caller);
}

TEST(Runner, EmptyAndSingletonBatches) {
  Runner runner(4);
  int calls = 0;
  runner.run_indexed(0, [&](std::size_t) { ++calls; });
  EXPECT_EQ(calls, 0);
  runner.run_indexed(1, [&](std::size_t i) {
    EXPECT_EQ(i, 0u);
    ++calls;
  });
  EXPECT_EQ(calls, 1);
}

TEST(Runner, TasksRunOnWorkerLanes) {
  Runner runner(4);
  std::atomic<int> on_worker{0};
  runner.run_indexed(16, [&](std::size_t) {
    if (Runner::current() == &runner) on_worker.fetch_add(1);
  });
  // Every lane (pool workers and the participating caller) sees the runner
  // while draining, and the caller stops seeing it once the batch returns.
  EXPECT_EQ(on_worker.load(), 16);
  EXPECT_EQ(Runner::current(), nullptr);
}

TEST(Runner, CurrentNamesTheInnermostRunner) {
  EXPECT_EQ(Runner::current(), nullptr);
  Runner outer(4);
  Runner inner(2);
  std::atomic<int> wrong{0};
  outer.run_indexed(8, [&](std::size_t) {
    if (Runner::current() != &outer) wrong.fetch_add(1);
    inner.run_indexed(4, [&](std::size_t) {
      if (Runner::current() != &inner) wrong.fetch_add(1);
    });
    if (Runner::current() != &outer) wrong.fetch_add(1);
  });
  EXPECT_EQ(wrong.load(), 0);
  EXPECT_EQ(Runner::current(), nullptr);
}

TEST(Runner, ExceptionFromBatchPropagates) {
  Runner runner(4);
  EXPECT_THROW(runner.run_indexed(
                   32,
                   [](std::size_t i) {
                     if (i >= 3) throw std::runtime_error("task failed");
                   }),
               std::runtime_error);
  // The pool survives a failed batch.
  const auto out =
      runner.map(8, [](std::size_t i) { return static_cast<int>(i) + 1; });
  EXPECT_EQ(std::accumulate(out.begin(), out.end(), 0), 36);
}

TEST(Runner, SequentialExceptionReportsFirstIndex) {
  Runner runner(1);
  try {
    runner.run_indexed(8, [](std::size_t i) {
      if (i >= 2) throw std::runtime_error("task " + std::to_string(i));
    });
    FAIL() << "expected a throw";
  } catch (const std::runtime_error& error) {
    EXPECT_STREQ(error.what(), "task 2");
  }
}

/// Spins until `count` reaches `target`; false if that takes longer than
/// a generous deadline (a pool that never helps would otherwise hang).
bool await_count(const std::atomic<int>& count, int target) {
  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::seconds(30);
  while (count.load() < target) {
    if (std::chrono::steady_clock::now() > deadline) return false;
    std::this_thread::yield();
  }
  return true;
}

// Nested help, deterministic in every interleaving: with jobs=2 the outer
// batch deals task 0 to the caller's lane and task 1 to the worker's. Task
// 1 holds the worker until task 0 has started, so the caller runs task 0.
// Task 0 submits a nested batch whose two tasks each wait for the other to
// start: the caller can run only one of them, so the nested batch completes
// only if the worker, idle once task 1 returns, joins it and runs the other.
TEST(Runner, NestedBatchIsHelpedByAnIdleLane) {
  Runner runner(2);
  std::atomic<int> outer_started{0};
  std::atomic<int> inner_started{0};
  std::atomic<int> timeouts{0};
  std::vector<std::thread::id> inner_threads(2);
  const auto out = runner.map(2, [&](std::size_t i) {
    outer_started.fetch_add(1);
    if (i == 1) {
      if (!await_count(outer_started, 2)) timeouts.fetch_add(1);
      return 1;
    }
    const auto inner = runner.map(2, [&](std::size_t j) {
      EXPECT_EQ(Runner::current(), &runner);
      inner_threads[j] = std::this_thread::get_id();
      inner_started.fetch_add(1);
      if (!await_count(inner_started, 2)) timeouts.fetch_add(1);
      return static_cast<int>(10 + j);
    });
    return inner[0] + inner[1];
  });
  EXPECT_EQ(timeouts.load(), 0);
  EXPECT_EQ(out, (std::vector<int>{21, 1}));
  EXPECT_NE(inner_threads[0], inner_threads[1]);
}

// The roles swapped: the outer tasks hold each other until both have
// started, so the caller runs one and the worker the other. The worker's
// task submits the nested batch and the caller's returns at once, leaving
// the caller waiting on the outer batch: the nested batch completes only if
// that waiting caller joins it.
TEST(Runner, NestedBatchIsHelpedByTheWaitingCaller) {
  Runner runner(2);
  const auto caller = std::this_thread::get_id();
  std::atomic<int> outer_started{0};
  std::atomic<int> inner_started{0};
  std::atomic<int> timeouts{0};
  std::vector<std::thread::id> inner_threads(2);
  runner.run_indexed(2, [&](std::size_t) {
    outer_started.fetch_add(1);
    if (!await_count(outer_started, 2)) timeouts.fetch_add(1);
    if (std::this_thread::get_id() == caller) return;
    runner.run_indexed(2, [&](std::size_t j) {
      inner_threads[j] = std::this_thread::get_id();
      inner_started.fetch_add(1);
      if (!await_count(inner_started, 2)) timeouts.fetch_add(1);
    });
  });
  EXPECT_EQ(timeouts.load(), 0);
  EXPECT_NE(inner_threads[0], inner_threads[1]);
  EXPECT_TRUE(inner_threads[0] == caller || inner_threads[1] == caller);
}

// Same construction, but both nested tasks throw once both have started:
// the nested batch rethrows its smallest failing index into outer task 0,
// and the outer batch rethrows that on the caller.
TEST(Runner, NestedExceptionRethrowsTheSmallestIndex) {
  Runner runner(2);
  std::atomic<int> outer_started{0};
  std::atomic<int> inner_started{0};
  try {
    runner.run_indexed(2, [&](std::size_t i) {
      outer_started.fetch_add(1);
      if (i == 1) {
        (void)await_count(outer_started, 2);
        return;
      }
      runner.run_indexed(2, [&](std::size_t j) {
        inner_started.fetch_add(1);
        (void)await_count(inner_started, 2);
        throw std::runtime_error("nested task " + std::to_string(j));
      });
    });
    FAIL() << "expected a throw";
  } catch (const std::runtime_error& error) {
    EXPECT_STREQ(error.what(), "nested task 0");
  }
  EXPECT_EQ(inner_started.load(), 2);
  // The pool survives the failed nested batch.
  const auto out =
      runner.map(8, [](std::size_t i) { return static_cast<int>(i) + 1; });
  EXPECT_EQ(std::accumulate(out.begin(), out.end(), 0), 36);
}

// Many nested batches from every lane at once: results stay in order.
TEST(Runner, NestedBatchesFromEveryLaneMergeInOrder) {
  Runner runner(4);
  const auto out = runner.map(8, [&](std::size_t i) {
    const auto inner = runner.map(4, [&](std::size_t j) {
      EXPECT_EQ(Runner::current(), &runner);
      return static_cast<int>(i * 10 + j);
    });
    return std::accumulate(inner.begin(), inner.end(), 0);
  });
  for (std::size_t i = 0; i < out.size(); ++i) {
    EXPECT_EQ(out[i], static_cast<int>(40 * i + 6));
  }
}

TEST(Runner, ManyBatchesBackToBack) {
  Runner runner(3);
  std::int64_t total = 0;
  for (int round = 0; round < 200; ++round) {
    const auto out = runner.map(
        16, [&](std::size_t i) { return static_cast<std::int64_t>(i) + 1; });
    total += std::accumulate(out.begin(), out.end(), std::int64_t{0});
  }
  EXPECT_EQ(total, 200 * 136);
}

// Forced-steal scenario, deterministic in every interleaving: with jobs=2
// and count=8 the worker's lane holds {1, 3, 5, 7} and pops 7 first (LIFO).
// Task 7 refuses to finish until 1, 3, and 5 have run — and the only lane
// that can still reach them while the worker is pinned is the caller,
// stealing FIFO from the worker's deque. So the batch cannot complete with
// fewer than three steals, whichever thread gets scheduled when.
TEST(Runner, ForcedStealsPreserveOrderedMerge) {
  Runner runner(2);
  std::atomic<int> odd_done{0};
  const auto out = runner.map(8, [&](std::size_t i) {
    if (i == 1 || i == 3 || i == 5) odd_done.fetch_add(1);
    if (i == 7) {
      while (odd_done.load() < 3) std::this_thread::yield();
    }
    return static_cast<std::int64_t>(i * i);
  });
  EXPECT_GE(runner.last_batch_steals(), 3u);
  ASSERT_EQ(out.size(), 8u);
  for (std::size_t i = 0; i < out.size(); ++i) {
    EXPECT_EQ(out[i], static_cast<std::int64_t>(i * i));
  }
}

// Same construction, but the guaranteed-stolen task (3 — the worker is
// pinned on 7 while 3 is pending, so only a caller-side steal can run it)
// throws: the failure must cross lanes and rethrow on the caller.
TEST(Runner, ExceptionFromStolenTaskPropagates) {
  Runner runner(2);
  std::atomic<int> odd_done{0};
  std::atomic<bool> threw{false};
  try {
    runner.run_indexed(8, [&](std::size_t i) {
      if (i == 1 || i == 5) odd_done.fetch_add(1);
      if (i == 3) {
        threw.store(true);
        throw std::runtime_error("stolen task 3");
      }
      if (i == 7) {
        // Also unblock on failure: once the batch has failed, the
        // remaining odd tasks are skipped and would never arrive.
        while (odd_done.load() < 2 && !threw.load()) {
          std::this_thread::yield();
        }
      }
    });
    FAIL() << "expected a throw";
  } catch (const std::runtime_error& error) {
    EXPECT_STREQ(error.what(), "stolen task 3");
  }
  // The pool survives the failed batch.
  const auto out =
      runner.map(8, [](std::size_t i) { return static_cast<int>(i) + 1; });
  EXPECT_EQ(std::accumulate(out.begin(), out.end(), 0), 36);
}

// The engine's core guarantee: a parallel sweep of real simulations equals
// the sequential sweep exactly, field by field.
TEST(Runner, ParallelSimulationSweepMatchesSequentialExactly) {
  const std::vector<std::int64_t> sizes{50, 100, 150, 200, 250};

  auto sequential_combo = scenarios::make_ge(2);
  Runner sequential(1);
  const auto expected = sequential_combo->measure_many(sizes, sequential);

  auto parallel_combo = scenarios::make_ge(2);
  Runner parallel(8);
  const auto got = parallel_combo->measure_many(sizes, parallel);

  ASSERT_EQ(got.size(), expected.size());
  for (std::size_t i = 0; i < got.size(); ++i) {
    EXPECT_EQ(got[i].n, expected[i].n);
    EXPECT_EQ(got[i].seconds, expected[i].seconds);
    EXPECT_EQ(got[i].work_flops, expected[i].work_flops);
    EXPECT_EQ(got[i].speed_flops, expected[i].speed_flops);
    EXPECT_EQ(got[i].speed_efficiency, expected[i].speed_efficiency);
  }
}

// Regression: the iso-solver's parallel refinement must land on the same N
// as sequential bisection even where E_s(N) has small non-monotone wiggles
// (its waves replay the exact sequential trajectory).
TEST(Runner, IsoSolveIsWorkerCountInvariant) {
  auto baseline_combo = scenarios::make_ge(2);
  const auto baseline = scal::required_problem_size(
      *baseline_combo, scenarios::kGeTargetEs, {});

  for (int jobs : {1, 2, 8}) {
    auto combo = scenarios::make_ge(2);
    Runner runner(jobs);
    scal::IsoSolveOptions options;
    options.runner = &runner;
    const auto got =
        scal::required_problem_size(*combo, scenarios::kGeTargetEs, options);
    EXPECT_EQ(got.found, baseline.found) << "jobs=" << jobs;
    EXPECT_EQ(got.n, baseline.n) << "jobs=" << jobs;
    EXPECT_EQ(got.achieved_es, baseline.achieved_es) << "jobs=" << jobs;
  }
}

}  // namespace
}  // namespace hetscale::run
