// The experiment engine's worker pool.
//
// Every paper artifact is a sweep of *independent, deterministic* DES
// simulations. A Runner executes such a batch across a pool of worker
// threads: each task stays a single-threaded simulation, parallelism is
// only *across* tasks, and results are merged in request order — so any
// output derived from a batch is bit-identical to the sequential run,
// whatever the worker count or scheduling.
//
// Scheduling is work-stealing: each lane (the caller plus every pool
// thread) owns a fixed-capacity deque of task indices, dealt round-robin at
// submission. A lane pops its own deque LIFO and, only once that runs dry,
// steals FIFO from other lanes with a lock-free CAS. The hot path (own-lane
// pop) touches no shared cache line of any other lane; the cold path keeps
// every lane busy when task costs are skewed — exactly the shape of an
// iso-efficiency ladder, where one probe dominates the level. Stealing
// reorders *execution*, never *results*: slot i still holds task i.
//
// Determinism contract: task i must depend only on its own inputs (no
// shared mutable state between tasks); the Runner guarantees result slot i
// holds task i's value and that the caller observes all writes after the
// batch returns. With jobs == 1 no threads are created and every batch
// runs inline on the caller. Batches may nest: a task can submit a batch
// of its own, and idle lanes help drain it (see run_indexed).
#pragma once

#include <atomic>
#include <condition_variable>
#include <cstddef>
#include <cstdint>
#include <functional>
#include <mutex>
#include <thread>
#include <type_traits>
#include <vector>

namespace hetscale::run {

class Runner {
 public:
  /// jobs <= 0 picks the process default (HETSCALE_JOBS or hardware
  /// concurrency). jobs == 1 is the sequential fallback: no worker threads
  /// at all, batches run inline on the caller.
  explicit Runner(int jobs = 0);
  ~Runner();

  Runner(const Runner&) = delete;
  Runner& operator=(const Runner&) = delete;

  int jobs() const { return jobs_; }

  /// Run task(0) .. task(count - 1), blocking until all have finished.
  /// Tasks may execute concurrently and in any order when jobs() > 1; they
  /// must be safe to call from different threads at once. If tasks throw,
  /// the batch drains (remaining unstarted tasks are skipped) and the
  /// failure with the smallest task index is rethrown on the caller —
  /// including failures in stolen tasks.
  ///
  /// A batch submitted from inside a task is nested: it is published like
  /// any other batch and the submitting task drains it itself. Lanes idle
  /// in the pool join it, and so do submitters (the top-level caller
  /// included) that have drained their own, older batch and are waiting
  /// for its helpers' tasks. A waiting submitter only joins batches
  /// published after its own, whose tasks never wait on it, so nesting
  /// cannot deadlock the pool; with every other lane busy, a nested batch
  /// simply runs on its submitter.
  void run_indexed(std::size_t count,
                   const std::function<void(std::size_t)>& task);

  /// Run fn(i) for i in [0, count) and return the results in index order.
  /// The result type must be default-constructible.
  template <class Fn>
  auto map(std::size_t count, Fn&& fn)
      -> std::vector<std::decay_t<std::invoke_result_t<Fn&, std::size_t>>> {
    std::vector<std::decay_t<std::invoke_result_t<Fn&, std::size_t>>> out(
        count);
    run_indexed(count, [&](std::size_t i) { out[i] = fn(i); });
    return out;
  }

  /// The Runner whose task the calling thread is executing (inline or
  /// pooled, innermost when nested), or nullptr outside any task. Lets
  /// code deep inside a batch submit nested batches to the same pool.
  static Runner* current();

  /// How many tasks of the most recent top-level pooled batch ran on a
  /// lane other than the one they were dealt to. Inline batches
  /// (jobs() == 1 or a single task) report 0; nested batches leave it
  /// alone. Observability for tests and tuning only — stealing never
  /// affects results.
  std::size_t last_batch_steals() const { return last_batch_steals_; }

 private:
  struct Batch;

  void worker_loop(std::size_t lane);
  /// Run `batch`'s tasks as `lane` until none is left unclaimed; a lane
  /// that does not own its deque in `batch` only steals.
  void drain(Batch& batch, std::size_t lane, bool owns_lane);
  /// The newest in-flight batch with unclaimed tasks, among those published
  /// after `after` if given; mutex_ held.
  Batch* open_batch(const Batch* after = nullptr) const;
  std::size_t run_batch(std::size_t count,
                        const std::function<void(std::size_t)>& task);

  int jobs_ = 1;
  std::vector<std::thread> workers_;
  std::mutex mutex_;
  std::condition_variable work_cv_;  ///< wakes idle lanes for a new batch
  std::condition_variable done_cv_;  ///< wakes submitters when drained
  /// In-flight batches, oldest first (nested ones after their parents);
  /// guarded by mutex_.
  std::vector<Batch*> batches_;
  std::uint64_t published_ = 0;  ///< batches ever published; guarded
  /// Atomic because unrelated threads may submit top-level batches to one
  /// runner at once (tasks of another runner, say).
  std::atomic<std::size_t> last_batch_steals_{0};
  bool stop_ = false;
};

}  // namespace hetscale::run
