#include "hetscale/des/parallel.hpp"

#include <algorithm>
#include <limits>
#include <thread>

#include "hetscale/support/error.hpp"

namespace hetscale::des {

void SpinBarrier::arrive_and_wait() {
  const unsigned generation = generation_.load(std::memory_order_relaxed);
  if (arrived_.fetch_add(1, std::memory_order_acq_rel) + 1 == participants_) {
    // Last arriver: reset the count for the next round, then release the
    // generation. The reset is safe — every participant incremented before
    // this point, and none can re-arrive until it observes the new
    // generation (which is published after the reset).
    arrived_.store(0, std::memory_order_relaxed);
    generation_.store(generation + 1, std::memory_order_release);
    return;
  }
  int spins = 0;
  while (generation_.load(std::memory_order_acquire) == generation) {
    if (++spins >= 1024) {
      std::this_thread::yield();
      spins = 0;
    }
  }
}

namespace {
/// One partition's published round state, double-buffered by round parity
/// and padded to its own cache line so partitions never write a line that
/// another partition's slot shares.
struct alignas(64) PublishedBound {
  SimTime bound[2] = {0.0, 0.0};
  bool failed[2] = {false, false};
};
static_assert(sizeof(PublishedBound) % 64 == 0,
              "each partition's published bound needs its own cache line");
}  // namespace

ConservativeRun run_conservative(const std::vector<Scheduler*>& partitions,
                                 double lookahead_s,
                                 const PartitionHooks& hooks) {
  const int count = static_cast<int>(partitions.size());
  HETSCALE_REQUIRE(count >= 1, "need at least one partition");
  HETSCALE_REQUIRE(lookahead_s > 0.0,
                   "conservative windows need a positive lookahead");

  constexpr SimTime kIdle = std::numeric_limits<SimTime>::infinity();
  SpinBarrier barrier(count);
  std::vector<PublishedBound> published(partitions.size());
  ConservativeRun run;
  run.errors.resize(partitions.size());

  const auto partition_loop = [&](int p) {
    Scheduler& scheduler = *partitions[static_cast<std::size_t>(p)];
    std::exception_ptr& error = run.errors[static_cast<std::size_t>(p)];
    PublishedBound& own = published[static_cast<std::size_t>(p)];
    // A failed segment must not unwind past a barrier — the others would
    // wait for it forever — so every segment traps locally. A failed
    // partition publishes the failure with its next bound; every thread
    // reads it after that round's barrier, so all of them exit together.
    const auto guarded = [&](const auto& segment) {
      if (error) return;
      try {
        segment();
      } catch (...) {
        error = std::current_exception();
      }
    };

    guarded([&] {
      if (hooks.bootstrap) hooks.bootstrap(p);
    });
    std::uint64_t windows = 0;
    for (unsigned round = 0;; ++round) {
      const unsigned parity = round & 1u;
      SimTime bound = kIdle;
      guarded([&] {
        bound = scheduler.next_event_time();
        if (hooks.handoff_bound) {
          bound = std::min(bound, hooks.handoff_bound(p));
        }
      });
      own.bound[parity] = bound;
      own.failed[parity] = error != nullptr;
      barrier.arrive_and_wait();
      // Every thread folds the same published slots, so all agree on the
      // window bound, on quiescence and on failure without a leader.
      SimTime horizon = kIdle;
      bool failed = false;
      for (const PublishedBound& slot : published) {
        horizon = std::min(horizon, slot.bound[parity]);
        failed = failed || slot.failed[parity];
      }
      if (failed || horizon == kIdle) break;
      guarded([&] {
        if (hooks.deliver) hooks.deliver(p);
      });
      guarded([&] { scheduler.run_window(horizon + lookahead_s); });
      ++windows;
    }
    if (p == 0) run.windows = windows;
    // Per-partition liveness/exception check, even after a failure
    // elsewhere: the caller prefers real exceptions over the secondary
    // deadlocks an aborted run leaves behind, and checking unconditionally
    // keeps the recorded error set deterministic.
    guarded([&] { scheduler.check_roots(); });
  };

  std::vector<std::thread> threads;
  threads.reserve(partitions.size());
  for (int p = 0; p < count; ++p) {
    threads.emplace_back(partition_loop, p);
  }
  for (std::thread& thread : threads) thread.join();
  run.rendezvous = barrier.generation();
  return run;
}

}  // namespace hetscale::des
