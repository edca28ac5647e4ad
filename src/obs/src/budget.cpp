#include "hetscale/obs/budget.hpp"

#include <algorithm>
#include <cmath>
#include <limits>
#include <vector>

#include "hetscale/obs/span.hpp"
#include "hetscale/support/error.hpp"

namespace hetscale::obs {

TimeBudget& TimeBudget::operator+=(const TimeBudget& other) {
  compute_s += other.compute_s;
  comm_s += other.comm_s;
  sequential_s += other.sequential_s;
  fault_s += other.fault_s;
  residual_s += other.residual_s;
  elapsed_s += other.elapsed_s;
  return *this;
}

namespace {

/// Per-lane open-span counts; the lane's effective state is the
/// highest-priority non-empty one (fault > compute > comm > idle).
struct LaneState {
  int fault = 0;
  int compute = 0;
  int comm = 0;

  int& slot(SpanCategory category) {
    switch (category) {
      case SpanCategory::kFault: return fault;
      case SpanCategory::kCompute: return compute;
      default: return comm;
    }
  }

  enum class Effective { kIdle, kComm, kCompute, kFault };
  Effective effective() const {
    if (fault > 0) return Effective::kFault;
    if (compute > 0) return Effective::kCompute;
    if (comm > 0) return Effective::kComm;
    return Effective::kIdle;
  }
};

/// The part of a span the sweep counts: clamped to [0, elapsed], with a
/// budget category. Structural names (kOther), spans left open and spans
/// that clamp to nothing are not counted.
struct Counted {
  const std::vector<SpanCategory>& categories;
  double elapsed;

  bool operator()(const Span& span, double& begin, double& end,
                  SpanCategory& category) const {
    if (span.end < span.begin) return false;  // never closed
    category = categories[static_cast<std::size_t>(span.name_id)];
    if (category == SpanCategory::kOther) return false;
    begin = std::max(span.begin, 0.0);
    end = std::min(span.end, elapsed);
    return end > begin;
  }
};

/// One lane's edge instants in time order, each with the lane's effective
/// state before and after every edge at that instant. The lane's counted
/// spans arrive in begin order; the ends of the spans already begun wait
/// in a short list, latest first, one entry per level of the lane's
/// nesting, so the next instant is the earlier of the next begin and the
/// last pending end.
class LaneEdges {
 public:
  LaneEdges(const Span* first, const Span* last) : next_(first), last_(last) {}

  double time() const { return time_; }
  LaneState::Effective before() const { return before_; }
  LaneState::Effective after() const { return after_; }

  /// Step to the next instant; false once the lane has no edges left.
  bool advance(const Counted& counted) {
    fill(counted);
    if (ends_.empty() && !have_begin_) return false;
    double t = have_begin_ ? begin_ : ends_.back().time;
    if (!ends_.empty()) t = std::min(t, ends_.back().time);
    before_ = state_.effective();
    for (;;) {
      if (!ends_.empty() && ends_.back().time == t) {
        --state_.slot(ends_.back().category);
        ends_.pop_back();
      } else if (have_begin_ && begin_ == t) {
        ++state_.slot(begin_category_);
        ends_.push_back(Pending{end_, begin_category_});
        for (auto at = ends_.end() - 1;
             at != ends_.begin() && (at - 1)->time < at->time; --at) {
          std::swap(*at, *(at - 1));
        }
        have_begin_ = false;
        fill(counted);
      } else {
        break;
      }
    }
    after_ = state_.effective();
    time_ = t;
    return true;
  }

 private:
  struct Pending {
    double time;
    SpanCategory category;
  };

  void fill(const Counted& counted) {
    while (!have_begin_ && next_ != last_) {
      have_begin_ = counted(*next_++, begin_, end_, begin_category_);
    }
  }

  const Span* next_;
  const Span* last_;
  bool have_begin_ = false;  ///< begin_/end_ hold the next counted span
  double begin_ = 0.0;
  double end_ = 0.0;
  SpanCategory begin_category_ = SpanCategory::kOther;
  std::vector<Pending> ends_;  ///< latest first
  LaneState state_;
  double time_ = 0.0;
  LaneState::Effective before_ = LaneState::Effective::kIdle;
  LaneState::Effective after_ = LaneState::Effective::kIdle;
};

/// A loser tree over the lanes, keyed by their next instant: the lane with
/// the earliest one sits on top, and replaying it after it advances costs
/// one comparison per level on a fixed path. Lanes interleave at almost
/// every instant, so this path without data-dependent branches beats a
/// binary heap's sift. Lanes that ran dry keep the key +infinity.
class LaneTree {
 public:
  explicit LaneTree(const std::vector<double>& keys) {
    while (leaves_ < keys.size()) leaves_ *= 2;
    keys_.assign(leaves_, kDry);
    std::copy(keys.begin(), keys.end(), keys_.begin());
    losers_.assign(leaves_, 0);
    // Play the first tournament bottom-up, keeping each match's winner.
    std::vector<std::size_t> winners(2 * leaves_);
    for (std::size_t i = 0; i < leaves_; ++i) winners[leaves_ + i] = i;
    for (std::size_t node = leaves_ - 1; node >= 1; --node) {
      const std::size_t a = winners[2 * node];
      const std::size_t b = winners[2 * node + 1];
      const bool b_wins = keys_[b] < keys_[a];
      winners[node] = b_wins ? b : a;
      losers_[node] = b_wins ? a : b;
    }
    top_ = leaves_ > 1 ? winners[1] : 0;
  }

  std::size_t top() const { return top_; }
  double top_key() const { return keys_[top_]; }

  /// The top lane's key changed to `key`: replay its matches to the root.
  void replay(double key) {
    keys_[top_] = key;
    std::size_t winner = top_;
    for (std::size_t node = (top_ + leaves_) / 2; node >= 1; node /= 2) {
      const std::size_t challenger = losers_[node];
      const bool swap = keys_[challenger] < keys_[winner];
      losers_[node] = swap ? winner : challenger;
      winner = swap ? challenger : winner;
    }
    top_ = winner;
  }

  static constexpr double kDry = std::numeric_limits<double>::infinity();

 private:
  std::size_t leaves_ = 1;
  std::vector<double> keys_;
  std::vector<std::size_t> losers_;  ///< per internal node 1 .. leaves_ - 1
  std::size_t top_ = 0;
};

}  // namespace

TimeBudget compute_time_budget(const SpanStore& store, double elapsed) {
  HETSCALE_REQUIRE(elapsed >= 0.0 && std::isfinite(elapsed),
                   "elapsed time must be finite and non-negative");
  TimeBudget budget;
  budget.elapsed_s = elapsed;

  std::vector<SpanCategory> categories;
  categories.reserve(static_cast<std::size_t>(store.name_count()));
  for (int id = 0; id < store.name_count(); ++id) {
    categories.push_back(store.category(id));
  }
  const Counted counted{categories, elapsed};

  // A lane's counted spans begin in recording order unless a producer
  // recorded ahead of time (fault charges are recorded when the compute
  // they stretch starts); such a lane is put in begin order first.
  std::vector<std::vector<Span>> reordered;
  std::vector<LaneEdges> lanes;
  lanes.reserve(static_cast<std::size_t>(store.lane_count()));
  for (int l = 0; l < store.lane_count(); ++l) {
    const std::vector<Span>& spans = store.lane(l);
    double last_begin = 0.0;
    bool ordered = true;
    for (const Span& span : spans) {
      double begin = 0.0;
      double end = 0.0;
      SpanCategory category = SpanCategory::kOther;
      if (!counted(span, begin, end, category)) continue;
      if (begin < last_begin) {
        ordered = false;
        break;
      }
      last_begin = begin;
    }
    if (ordered) {
      lanes.emplace_back(spans.data(), spans.data() + spans.size());
      continue;
    }
    std::vector<Span>& copy = reordered.emplace_back(spans);
    std::sort(copy.begin(), copy.end(), [](const Span& a, const Span& b) {
      return std::max(a.begin, 0.0) < std::max(b.begin, 0.0);
    });
    lanes.emplace_back(copy.data(), copy.data() + copy.size());
  }

  // Merge the lanes' edge streams through the loser tree. Edges at one
  // instant may come in any order: the sweep only
  // accounts between distinct instants, and the state it accounts with is
  // the one after every edge at the earlier instant — so each lane hands
  // over all its edges at an instant at once.
  std::vector<double> keys;
  keys.reserve(lanes.size());
  for (LaneEdges& lane : lanes) {
    keys.push_back(lane.advance(counted) ? lane.time() : LaneTree::kDry);
  }
  LaneTree tree(keys);

  int computing = 0;  // lanes whose effective state is compute
  int faulting = 0;
  int communicating = 0;

  auto account = [&](double from, double to) {
    const double duration = to - from;
    if (duration <= 0.0) return;
    if (computing >= 2) {
      budget.compute_s += duration;
    } else if (computing == 1) {
      budget.sequential_s += duration;
    } else if (faulting >= 1) {
      budget.fault_s += duration;
    } else if (communicating >= 1) {
      budget.comm_s += duration;
    } else {
      budget.residual_s += duration;
    }
  };
  auto tally = [&](LaneState::Effective state, int delta) {
    switch (state) {
      case LaneState::Effective::kCompute: computing += delta; break;
      case LaneState::Effective::kFault: faulting += delta; break;
      case LaneState::Effective::kComm: communicating += delta; break;
      case LaneState::Effective::kIdle: break;
    }
  };

  double cursor = 0.0;
  while (tree.top_key() != LaneTree::kDry) {
    LaneEdges& lane = lanes[tree.top()];
    account(cursor, lane.time());
    cursor = std::max(cursor, lane.time());
    if (lane.before() != lane.after()) {
      tally(lane.before(), -1);
      tally(lane.after(), +1);
    }
    tree.replay(lane.advance(counted) ? lane.time() : LaneTree::kDry);
  }
  // Tail after the last edge (all lanes idle by then) is residual.
  account(cursor, elapsed);
  return budget;
}

}  // namespace hetscale::obs
