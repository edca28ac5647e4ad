// SpanStore — named, per-lane intervals of virtual time, with nesting.
//
// The span taxonomy the runtime emits (vmpi/fault record into a Machine's
// store): `compute`, `send.wait`, `recv.wait`, `barrier`, `checkpoint`,
// `fault.rework`. Names are interned; each carries a category (compute /
// comm / fault / other) that the time-budget sweep (obs/budget.hpp) and
// the exporters classify by. Lanes are ranks; depth records nesting (a
// send.wait inside a barrier has depth 1).
//
// Storage is one buffer per lane, in recording order. A rank records its
// leaf spans as they finish and opens a nesting span before anything it
// covers, so each lane's buffer is already in the lane's time order: the
// budget sweep and the critical-path walk (obs/critical_path.hpp) merge
// the lanes instead of sorting the run. Lanes are dense non-negative ids
// (ranks).
//
// Times are plain doubles: the obs layer sits below the DES in the build,
// so it cannot name des::SimTime — but a SimTime *is* a double, and every
// producer records scheduler time directly. ScopedSpan needs a clock for
// its RAII close; bind one with bind_clock().
#pragma once

#include <cstddef>
#include <cstdint>
#include <functional>
#include <map>
#include <string>
#include <vector>

namespace hetscale::obs {

enum class SpanCategory { kCompute, kComm, kFault, kOther };

/// Returned by open() when tracing is off; close() ignores it.
inline constexpr std::size_t kNoSpan = static_cast<std::size_t>(-1);

struct Span {
  int lane = 0;  ///< rank (or any stable non-negative lane id)
  int name_id = 0;
  double begin = 0.0;
  double end = 0.0;
  int depth = 0;       ///< how many spans were open on the lane at begin
  int peer = -1;       ///< other endpoint for comm spans, -1 otherwise
  int tag = 0;
  std::uint32_t order = 0;  ///< position in the store's recording order
  double bytes = 0.0;       ///< modeled payload size for comm spans
};

class SpanStore {
 public:
  /// Intern `name`, inferring its category from the taxonomy above
  /// ("compute" -> compute; "send.wait"/"recv.wait"/"barrier" -> comm;
  /// "checkpoint"/"fault.*" -> fault; anything else -> other).
  int intern(const std::string& name);
  int intern(const std::string& name, SpanCategory category);

  const std::string& name(int id) const;
  SpanCategory category(int id) const;
  /// Names interned so far; ids are 0 .. name_count() - 1.
  int name_count() const { return static_cast<int>(names_.size()); }

  /// Record a completed (leaf) span at the lane's current nesting depth.
  void record(int lane, int name_id, double begin, double end, int peer = -1,
              int tag = 0, double bytes = 0.0);

  /// Open a nesting span; record()s on the lane until the matching close()
  /// get depth + 1. Returns a handle for close(); kNoSpan is accepted and
  /// ignored there, so producers can thread "tracing off" through.
  std::size_t open(int lane, int name_id, double begin);
  void close(std::size_t handle, double end);

  /// One past the highest lane recorded into; lanes below it that were
  /// never recorded into are empty.
  int lane_count() const { return lane_count_; }

  /// One lane's spans in recording order. Spans opened but never closed
  /// keep end < begin and are skipped by consumers.
  const std::vector<Span>& lane(int lane) const;

  /// All spans in recording order, gathered from the lanes.
  std::vector<Span> spans() const;

  std::size_t size() const { return size_; }

  /// Spans currently open (for leak checks in tests).
  std::size_t open_count() const { return open_count_; }

  bool empty() const { return size_ == 0; }

  /// Bind the virtual clock ScopedSpan reads at construction/destruction.
  void bind_clock(std::function<double()> clock) {
    clock_ = std::move(clock);
  }
  double clock_now() const;

 private:
  struct Lane {
    std::vector<Span> spans;
    int depth = 0;  ///< currently open spans
  };

  Lane& lane_for_record(int lane);
  std::uint32_t next_order();

  std::map<std::string, int> ids_;
  std::vector<std::string> names_;
  std::vector<SpanCategory> categories_;
  std::vector<Lane> lanes_;
  int lane_count_ = 0;
  std::size_t size_ = 0;
  std::size_t open_count_ = 0;
  std::function<double()> clock_;
};

/// RAII span over the store's bound clock: opens at construction, closes
/// at destruction. For straight-line (non-coroutine) code; coroutines use
/// explicit open()/close() because frame destruction may happen after the
/// virtual instant the span logically ends at.
class ScopedSpan {
 public:
  ScopedSpan(SpanStore& store, int lane, int name_id);
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;
  ~ScopedSpan();

 private:
  SpanStore* store_;
  std::size_t handle_;
};

}  // namespace hetscale::obs
