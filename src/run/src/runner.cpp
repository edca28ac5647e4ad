#include "hetscale/run/runner.hpp"

#include <algorithm>
#include <atomic>
#include <chrono>
#include <exception>
#include <limits>
#include <memory>
#include <utility>

#include "hetscale/obs/profiler.hpp"
#include "hetscale/support/args.hpp"
#include "hetscale/support/error.hpp"

namespace hetscale::run {

namespace {

// The Runner whose task this thread is executing, and the lane it drains
// that Runner's batches as. Pool threads keep their lane for life; any
// other thread submits (and drains) as lane 0.
thread_local Runner* t_current = nullptr;
thread_local std::size_t t_lane = 0;

/// Marks the calling thread as executing `runner`'s tasks on `lane` for the
/// scope's lifetime, restoring the enclosing task's view on exit.
class CurrentScope {
 public:
  CurrentScope(Runner* runner, std::size_t lane)
      : runner_(std::exchange(t_current, runner)),
        lane_(std::exchange(t_lane, lane)) {}
  ~CurrentScope() {
    t_current = runner_;
    t_lane = lane_;
  }
  CurrentScope(const CurrentScope&) = delete;
  CurrentScope& operator=(const CurrentScope&) = delete;

 private:
  Runner* runner_;
  std::size_t lane_;
};

// One lane's deque of task indices — a Chase-Lev deque specialized to this
// Runner's lifecycle: the buffer is filled once *before* the batch is
// published (the mutex handshake in run_batch gives every worker a
// happens-before edge to those writes) and nothing pushes mid-batch. With
// the buffer immutable, the classic hazards (growth, a steal reading a slot
// the owner is overwriting) vanish, and what remains is the owner/thief
// race on the *indices*: the owner pops at `bottom` with only a seq_cst
// fence on its fast path, thieves CAS `top` forward. They contend only on
// the deque's last element.
struct alignas(64) Lane {
  std::atomic<std::ptrdiff_t> top{0};
  std::atomic<std::ptrdiff_t> bottom{0};
  const std::size_t* buf = nullptr;  ///< slice of Batch::items; read-only
};

}  // namespace

// One submitted batch. The deques hand out task indices; the finish/attach
// counters and the error slot are guarded by the owning Runner's mutex.
struct Runner::Batch {
  std::size_t count = 0;
  const std::function<void(std::size_t)>* task = nullptr;
  std::vector<std::size_t> items;    ///< indices grouped by owning lane
  std::unique_ptr<Lane[]> lanes;     ///< one deque per lane
  std::size_t lane_count = 0;
  std::atomic<std::size_t> steals{0};
  std::atomic<bool> failed{false};
  std::size_t finished = 0;  ///< claimed indices fully processed
  int attached = 0;          ///< helper lanes currently draining it
  std::size_t error_index = std::numeric_limits<std::size_t>::max();
  std::exception_ptr error;
};

namespace {

enum class StealResult { kEmpty, kContended, kSuccess };

/// Owner-side LIFO pop. Only the lane's owner calls this. The provisional
/// bottom decrement plus seq_cst fence orders it against a concurrent
/// thief's top read; when one element remains, owner and thief race for it
/// through the CAS on top.
bool pop_bottom(Lane& lane, std::size_t& out) {
  const std::ptrdiff_t b = lane.bottom.load(std::memory_order_relaxed) - 1;
  lane.bottom.store(b, std::memory_order_relaxed);
  std::atomic_thread_fence(std::memory_order_seq_cst);
  std::ptrdiff_t t = lane.top.load(std::memory_order_relaxed);
  if (t > b) {
    lane.bottom.store(b + 1, std::memory_order_relaxed);
    return false;
  }
  out = lane.buf[b];
  if (t == b) {
    const bool won = lane.top.compare_exchange_strong(
        t, t + 1, std::memory_order_seq_cst, std::memory_order_relaxed);
    lane.bottom.store(b + 1, std::memory_order_relaxed);
    return won;
  }
  return true;
}

/// Thief-side FIFO steal. Reading buf[t] before the CAS is safe because the
/// buffer never changes during a batch; the CAS then decides whether this
/// thief actually owns index t. A failed CAS is *not* "empty" — another
/// claimant moved top — so the caller must re-scan.
StealResult steal_top(Lane& lane, std::size_t& out) {
  std::ptrdiff_t t = lane.top.load(std::memory_order_acquire);
  std::atomic_thread_fence(std::memory_order_seq_cst);
  const std::ptrdiff_t b = lane.bottom.load(std::memory_order_acquire);
  if (t >= b) return StealResult::kEmpty;
  out = lane.buf[t];
  if (!lane.top.compare_exchange_strong(t, t + 1, std::memory_order_seq_cst,
                                        std::memory_order_relaxed)) {
    return StealResult::kContended;
  }
  return StealResult::kSuccess;
}

/// Whether any deque still holds an unclaimed index. A racing claim can
/// make the answer stale either way; callers only use it to decide whether
/// joining the batch is worth it.
bool has_unclaimed(const Lane* lanes, std::size_t lane_count) {
  for (std::size_t l = 0; l < lane_count; ++l) {
    if (lanes[l].top.load(std::memory_order_acquire) <
        lanes[l].bottom.load(std::memory_order_acquire)) {
      return true;
    }
  }
  return false;
}

/// Scan the lanes for work — the other lanes, or all of them when `self`
/// does not own its deque — restarting while any scan was contended: a
/// lost CAS means indices were still in flight, and reporting "no work"
/// then would retire a lane while tasks remain unclaimed.
bool steal_any(Lane* lanes, std::size_t lane_count, std::size_t self,
               bool owns_self, std::atomic<std::size_t>& steals,
               std::size_t& out) {
  for (;;) {
    bool contended = false;
    for (std::size_t d = owns_self ? 1 : 0; d < lane_count; ++d) {
      Lane& victim = lanes[(self + d) % lane_count];
      const StealResult r = steal_top(victim, out);
      if (r == StealResult::kSuccess) {
        steals.fetch_add(1, std::memory_order_relaxed);
        return true;
      }
      if (r == StealResult::kContended) contended = true;
    }
    if (!contended) return false;
  }
}

}  // namespace

Runner::Runner(int jobs) : jobs_(jobs > 0 ? jobs : default_jobs()) {
  // The caller participates in draining (lane 0), so jobs_ - 1 pool threads
  // give jobs_ concurrent lanes.
  workers_.reserve(static_cast<std::size_t>(jobs_ - 1));
  for (int i = 0; i + 1 < jobs_; ++i) {
    const std::size_t lane = static_cast<std::size_t>(i) + 1;
    workers_.emplace_back([this, lane] { worker_loop(lane); });
  }
}

Runner::~Runner() {
  {
    std::lock_guard<std::mutex> lock(mutex_);
    stop_ = true;
  }
  work_cv_.notify_all();
  for (auto& worker : workers_) worker.join();
}

Runner* Runner::current() { return t_current; }

void Runner::drain(Batch& batch, std::size_t lane, bool owns_lane) {
  const CurrentScope scope(this, lane);
  for (;;) {
    std::size_t i;
    if (!(owns_lane && pop_bottom(batch.lanes[lane], i)) &&
        !steal_any(batch.lanes.get(), batch.lane_count, lane, owns_lane,
                   batch.steals, i)) {
      break;
    }
    std::exception_ptr error;
    if (!batch.failed.load(std::memory_order_relaxed)) {
      try {
        (*batch.task)(i);
      } catch (...) {
        error = std::current_exception();
        batch.failed.store(true, std::memory_order_relaxed);
      }
    }
    std::lock_guard<std::mutex> lock(mutex_);
    if (error && i < batch.error_index) {
      batch.error_index = i;
      batch.error = error;
    }
    if (++batch.finished == batch.count) done_cv_.notify_all();
  }
}

Runner::Batch* Runner::open_batch(const Batch* after) const {
  // Newest first: a nested batch is what some task is blocked on, so it
  // sits on the critical path of everything published before it.
  for (auto it = batches_.rbegin(); it != batches_.rend() && *it != after;
       ++it) {
    if (has_unclaimed((*it)->lanes.get(), (*it)->lane_count)) return *it;
  }
  return nullptr;
}

void Runner::worker_loop(std::size_t lane) {
  std::unique_lock<std::mutex> lock(mutex_);
  for (;;) {
    if (stop_) return;
    const std::uint64_t seen = published_;
    if (Batch* batch = open_batch()) {
      ++batch->attached;
      lock.unlock();
      drain(*batch, lane, true);
      lock.lock();
      // The submitter frees the batch only once finished == count and no
      // helper is still attached; always notify so it can re-check both.
      --batch->attached;
      done_cv_.notify_all();
      continue;
    }
    work_cv_.wait(lock, [&] { return stop_ || published_ != seen; });
  }
}

void Runner::run_indexed(std::size_t count,
                         const std::function<void(std::size_t)>& task) {
  HETSCALE_REQUIRE(task != nullptr, "batch task must be callable");
  if (count == 0) return;
  obs::Profiler* profiler = obs::current();
  if (profiler == nullptr) {
    run_batch(count, task);
    return;
  }
  // Profiled batch: measure the batch's wall time and the summed per-task
  // busy time (host-side occupancy — volatile across --jobs, so the
  // profiler quarantines it in WallStats).
  using Clock = std::chrono::steady_clock;
  std::atomic<std::int64_t> busy_ns{0};
  const std::function<void(std::size_t)> timed = [&](std::size_t i) {
    const Clock::time_point begin = Clock::now();
    task(i);
    busy_ns.fetch_add(std::chrono::duration_cast<std::chrono::nanoseconds>(
                          Clock::now() - begin)
                          .count(),
                      std::memory_order_relaxed);
  };
  const Clock::time_point begin = Clock::now();
  const std::size_t steals = run_batch(count, timed);
  const double wall_s =
      std::chrono::duration<double>(Clock::now() - begin).count();
  profiler->record_batch(jobs_, count, wall_s,
                         1e-9 * static_cast<double>(busy_ns.load()), steals);
}

std::size_t Runner::run_batch(std::size_t count,
                              const std::function<void(std::size_t)>& task) {
  // A nested batch drains on its submitter's own lane and leaves
  // last_batch_steals_ to the top-level batch it runs inside.
  const bool nested = t_current == this;
  if (jobs_ == 1 || count == 1) {
    const CurrentScope scope(this, nested ? t_lane : 0);
    if (!nested) last_batch_steals_ = 0;
    for (std::size_t i = 0; i < count; ++i) task(i);
    return 0;
  }

  Batch batch;
  batch.count = count;
  batch.task = &task;
  batch.lane_count = static_cast<std::size_t>(jobs_);
  batch.lanes = std::make_unique<Lane[]>(batch.lane_count);
  batch.items.resize(count);
  // Deal indices round-robin: lane l owns l, l + L, l + 2L, ... ascending
  // in its buffer. The owner pops LIFO, so each lane starts on its
  // highest-index task; callers that order batches ascending by cost (see
  // scal's measure_many) thus get LPT-style scheduling for free, and
  // thieves pick up each lane's cheap leftovers FIFO.
  std::size_t pos = 0;
  for (std::size_t l = 0; l < batch.lane_count; ++l) {
    Lane& lane = batch.lanes[l];
    lane.buf = batch.items.data() + pos;
    std::size_t size = 0;
    for (std::size_t i = l; i < count; i += batch.lane_count) {
      batch.items[pos + size] = i;
      ++size;
    }
    lane.bottom.store(static_cast<std::ptrdiff_t>(size),
                      std::memory_order_relaxed);
    pos += size;
  }
  {
    std::lock_guard<std::mutex> lock(mutex_);
    batches_.push_back(&batch);
    ++published_;
  }
  work_cv_.notify_all();
  done_cv_.notify_all();  // submitters waiting below may help this batch

  // Drain on the submitting thread's own lane (lane 0 for a top-level
  // submitter). Every lane has at most one owner per batch: pool threads
  // own lanes 1..jobs-1 and never submit as anything else.
  const std::size_t lane = nested ? t_lane : 0;
  drain(batch, lane, true);

  // While the helpers finish their tasks, help any batch published after
  // this one (nested in another lane's task): without this the top-level
  // caller would idle through the slowest rung's waves. Never an older
  // batch, which could hand this lane a whole rung to run before its own
  // batch may return. Helping only steals: lane 0 is shared by every
  // thread outside the pool, so popping it in a foreign batch could give
  // one deque two owners.
  std::unique_lock<std::mutex> lock(mutex_);
  while (batch.finished != batch.count) {
    const std::uint64_t seen = published_;
    if (Batch* newer = open_batch(&batch)) {
      ++newer->attached;
      lock.unlock();
      drain(*newer, lane, false);
      lock.lock();
      --newer->attached;
      done_cv_.notify_all();
      continue;
    }
    done_cv_.wait(lock, [&] {
      return batch.finished == batch.count || published_ != seen;
    });
  }
  done_cv_.wait(lock, [&] { return batch.attached == 0; });
  batches_.erase(std::find(batches_.begin(), batches_.end(), &batch));
  lock.unlock();
  const std::size_t steals = batch.steals.load(std::memory_order_relaxed);
  if (!nested) last_batch_steals_ = steals;
  if (batch.error) std::rethrow_exception(batch.error);
  return steals;
}

}  // namespace hetscale::run
