// An indexed ladder/bucket queue for pending simulation events.
//
// The scheduler's workload is dominated by short `delay(dt)` hops: events are
// inserted a little ahead of the virtual clock and popped in near-FIFO order.
// A binary heap pays O(log n) compares and shuffles the backing array on
// every operation; this queue instead spreads the pending window across a
// fixed array of buckets ("rungs") and drains them in order:
//
//   * events inside the current epoch  [epoch_start, epoch_end)  land in the
//     bucket indexed by (time - epoch_start) / width;
//   * events beyond the epoch are appended, unsorted, to a far list;
//   * when the ladder drains, the far list is re-bucketed into a fresh epoch
//     whose width adapts to the observed time span.
//
// A bucket is sorted once, when the drain reaches it; later insertions into
// the *current* bucket keep it sorted (they can only land at or after the
// drain position: the scheduler guarantees time >= now and sequence numbers
// are monotone). Buckets and the far list are reusable vectors — slabs whose
// capacity survives across epochs — so steady-state operation allocates
// nothing.
//
// Pop order is EXACTLY ascending (time, sequence) — the same total order as
// the heap it replaces; the determinism suite and the property tests in
// tests/des/test_event_queue.cpp hold the two implementations side by side.
#pragma once

#include <algorithm>
#include <array>
#include <coroutine>
#include <cstddef>
#include <cstdint>
#include <vector>

#include "hetscale/des/telemetry.hpp"
#include "hetscale/support/error.hpp"

namespace hetscale::des {

/// Virtual time, in seconds.
using SimTime = double;

/// One pending coroutine resumption.
struct Event {
  SimTime time = 0.0;
  std::uint64_t sequence = 0;
  std::coroutine_handle<> handle;
};

/// Ascending (time, sequence) — the scheduler's total order.
inline bool event_before(const Event& a, const Event& b) {
  if (a.time != b.time) return a.time < b.time;
  return a.sequence < b.sequence;
}

class LadderEventQueue {
 public:
  // Dedicated counter, not `ladder_count_ + far_.size()`: far_.size()
  // divides a pointer difference by sizeof(Event), and both predicates sit
  // on the scheduler's per-event paths.
  bool empty() const { return count_ == 0; }
  std::size_t size() const { return count_; }

  /// Bind an optional telemetry block (null detaches). Unbound — the
  /// default — the instrumented paths reduce to one untaken branch each.
  void bind_telemetry(QueueTelemetry* telemetry) { telemetry_ = telemetry; }

  /// Insert an event. The caller (the scheduler) guarantees that `e.time` is
  /// never behind the last popped time, which is what keeps insertions into
  /// the currently-draining bucket order-safe. It may still be before the
  /// epoch start: the scheduler's front slot can hold an event earlier than
  /// the epoch, and an event between the two then belongs at the head of
  /// the draining bucket, ahead of everything the ladder holds.
  void push(const Event& e) {
    ++count_;
    if (telemetry_ != nullptr) ++telemetry_->pushes;
    if (ladder_count_ == 0 || e.time >= epoch_end_) {
      if (telemetry_ != nullptr) ++telemetry_->far_inserts;
      far_.push_back(e);
      return;
    }
    // Only a positive offset may be converted: a negative double cast to
    // size_t is undefined (and on x86-64 lands in the last bucket).
    const double offset = (e.time - epoch_start_) * inv_width_;
    std::size_t idx = 0;
    if (offset > 0.0) {
      idx = offset < static_cast<double>(kBuckets)
                ? static_cast<std::size_t>(offset)
                : kBuckets - 1;
    }
    if (idx < cur_) idx = cur_;  // float-edge clamp; see file comment
    auto& bucket = buckets_[idx];
    if (idx == cur_) {
      // The draining bucket stays sorted: binary-insert into the unpopped
      // tail (the drain window [drain_pos_, drain_end_)). An insert landing
      // exactly at the drain position — the hot "timing wheel" rhythm where
      // each pop schedules the next global minimum — reuses the dead slot
      // left by the last pop instead of shifting the tail.
      Event* const at = std::upper_bound(
          drain_pos_, drain_end_, e,
          [](const Event& a, const Event& b) { return event_before(a, b); });
      if (at == drain_pos_ && drain_pos_ != bucket.data()) {
        *--drain_pos_ = e;
      } else {
        // insert() may reallocate the slab: re-derive the window afterwards.
        const std::ptrdiff_t pos = drain_pos_ - bucket.data();
        bucket.insert(bucket.begin() + (at - bucket.data()), e);
        drain_pos_ = bucket.data() + pos;
        drain_end_ = bucket.data() + bucket.size();
      }
    } else {
      bucket.push_back(e);  // sorted later, when the drain arrives
    }
    ++ladder_count_;
  }

  /// Remove and return the minimum event in (time, sequence) order.
  Event pop_min() {
    HETSCALE_DCHECK(!empty(), "pop from an empty event queue");
    --count_;
    if (telemetry_ != nullptr) ++telemetry_->pops;
    if (ladder_count_ == 0) {
      // Small-count fast path. The simulator's steady state is a handful of
      // pending events (one per rank, mostly), and with an empty ladder they
      // are ALL in the far list — a linear min-scan over a few contiguous
      // elements is exact and far cheaper than building an epoch. Removal is
      // swap-with-back: the far list is unsorted by design, and neither
      // bucket assignment nor the per-bucket sort depends on its order, so
      // pop results stay bit-identical.
      if (far_.size() <= kLinearScanMax) {
        std::size_t min_i = 0;
        for (std::size_t i = 1; i < far_.size(); ++i) {
          if (event_before(far_[i], far_[min_i])) min_i = i;
        }
        const Event e = far_[min_i];
        far_[min_i] = far_.back();
        far_.pop_back();
        return e;
      }
      rebuild();
    }
    // The drain window is a pair of raw pointers, not an index: `pos <
    // bucket.size()` would divide a pointer difference by sizeof(Event) on
    // every pop, and `buckets_[cur_]` would re-chase the slab pointer.
    for (;;) {
      if (drain_pos_ != drain_end_) {
        --ladder_count_;
        return *drain_pos_++;
      }
      buckets_[cur_].clear();  // keeps capacity: the slab is reused
      ++cur_;
      HETSCALE_DCHECK(cur_ < kBuckets, "ladder count out of sync");
      auto& bucket = buckets_[cur_];
      sort_bucket(bucket);
      drain_pos_ = bucket.data();
      drain_end_ = bucket.data() + bucket.size();
    }
  }

 private:
  static constexpr std::size_t kBuckets = 64;
  /// Below this population an empty-ladder pop scans the far list directly
  /// instead of starting an epoch. 16 events is ~3 cache lines; the scan
  /// beats the rebuild's width math + sort until well past that.
  static constexpr std::size_t kLinearScanMax = 16;

  static void sort_bucket(std::vector<Event>& bucket) {
    if (bucket.size() < 2) return;  // most rungs hold 0-1 events
    std::sort(bucket.begin(), bucket.end(),
              [](const Event& a, const Event& b) { return event_before(a, b); });
  }

  /// Start a new epoch from the far list (called with an empty ladder).
  void rebuild();

  std::array<std::vector<Event>, kBuckets> buckets_;
  std::vector<Event> far_;          ///< events at or beyond epoch_end_
  std::size_t count_ = 0;           ///< total pending (ladder + far)
  std::size_t ladder_count_ = 0;    ///< events currently in buckets_
  std::size_t cur_ = 0;             ///< bucket being drained
  Event* drain_pos_ = nullptr;      ///< next unpopped event in buckets_[cur_]
  Event* drain_end_ = nullptr;      ///< one past the last event in buckets_[cur_]
  SimTime epoch_start_ = 0.0;
  SimTime epoch_end_ = 0.0;
  double inv_width_ = 0.0;
  QueueTelemetry* telemetry_ = nullptr;  ///< optional; see bind_telemetry()
};

}  // namespace hetscale::des
