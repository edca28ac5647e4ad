#include "hetscale/obs/critical_path.hpp"

#include <algorithm>
#include <limits>
#include <string>
#include <tuple>
#include <utility>

#include "hetscale/obs/span.hpp"
#include "hetscale/support/error.hpp"

namespace hetscale::obs {

const char* path_segment_kind_name(PathSegmentKind kind) {
  switch (kind) {
    case PathSegmentKind::kCompute: return "compute";
    case PathSegmentKind::kComm: return "comm";
    case PathSegmentKind::kWait: return "wait";
    case PathSegmentKind::kFault: return "fault";
  }
  throw ModelError("unknown path segment kind");
}

void MessageLog::record(const PathMessage& message) {
  HETSCALE_REQUIRE(message.source >= 0 && message.destination >= 0,
                   "message endpoints must be non-negative lanes");
  HETSCALE_REQUIRE(message.destination < std::numeric_limits<int>::max(),
                   "message destination out of range");
  HETSCALE_CHECK(size_ < std::numeric_limits<std::uint32_t>::max(),
                 "message log is full");
  const auto lane = static_cast<std::size_t>(message.destination);
  if (message.destination >= lane_count_) {
    lanes_.resize(lane + 1);
    lane_count_ = message.destination + 1;
  }
  lanes_[lane].messages.push_back(message);
  lanes_[lane].order.push_back(static_cast<std::uint32_t>(size_++));
}

const std::vector<PathMessage>& MessageLog::inbox(int lane) const {
  HETSCALE_REQUIRE(lane >= 0 && lane < lane_count_,
                   "message lane out of range");
  return lanes_[static_cast<std::size_t>(lane)].messages;
}

std::vector<PathMessage> MessageLog::messages() const {
  // The recording positions are a permutation of 0 .. size_ - 1.
  std::vector<PathMessage> out(size_);
  for (int l = 0; l < lane_count_; ++l) {
    const Lane& lane = lanes_[static_cast<std::size_t>(l)];
    for (std::size_t i = 0; i < lane.messages.size(); ++i) {
      out[lane.order[i]] = lane.messages[i];
    }
  }
  return out;
}

namespace {

/// How the walker treats a span name. Structural spans (barrier, custom
/// kOther names) cover their constituent leaf spans and are skipped.
enum class SpanClass { kCompute, kFault, kRecvWait, kCommLocal, kSkip };

SpanClass classify(const SpanStore& store, int name_id) {
  switch (store.category(name_id)) {
    case SpanCategory::kCompute: return SpanClass::kCompute;
    case SpanCategory::kFault: return SpanClass::kFault;
    case SpanCategory::kComm: {
      const std::string& name = store.name(name_id);
      if (name == "recv.wait") return SpanClass::kRecvWait;
      if (name == "barrier") return SpanClass::kSkip;
      return SpanClass::kCommLocal;  // send.wait and friends
    }
    case SpanCategory::kOther: return SpanClass::kSkip;
  }
  throw ModelError("unknown span category");
}

bool walk_before(const Span* a, const Span* b) {
  return std::tie(a->begin, a->end) < std::tie(b->begin, b->end);
}

/// The first span of [lo, hi) beginning at or after `cursor`, given the
/// span begins ascend and every span from hi on begins at or after it:
/// gallop left from hi, then bisect the bracket.
const Span* first_at_or_after(const Span* lo, const Span* hi, double cursor) {
  std::ptrdiff_t step = 1;
  const Span* bound = hi;
  while (bound != lo && !((bound - 1)->begin < cursor)) {
    hi = bound - 1;
    bound = hi - lo > step ? hi - step : lo;
    step *= 2;
  }
  return std::lower_bound(bound, hi, cursor, [](const Span& s, double c) {
    return s.begin < c;
  });
}

/// The messages of one destination lane grouped by source (in recording
/// order, then re-ordered by (arrive, depart) where a group is not), built
/// the first time the walk matches a receive on the lane.
class InboxIndex {
 public:
  /// The group of messages from `source`, as indices into the inbox.
  std::pair<const std::uint32_t*, const std::uint32_t*> from(
      const std::vector<PathMessage>& inbox, int source) {
    if (!built_) build(inbox);
    const auto group = std::lower_bound(
        groups_.begin(), groups_.end(), source,
        [](const Group& g, int s) { return g.source < s; });
    if (group == groups_.end() || group->source != source) return {};
    return {ids_.data() + group->begin, ids_.data() + group->end};
  }

 private:
  struct Group {
    int source;
    std::uint32_t begin;
    std::uint32_t end;
  };

  void build(const std::vector<PathMessage>& inbox) {
    built_ = true;
    int max_source = -1;
    for (const PathMessage& m : inbox) {
      max_source = std::max(max_source, m.source);
    }
    // Counting sort by source: stable, so each group keeps recording order.
    std::vector<std::uint32_t> count(
        static_cast<std::size_t>(max_source) + 2, 0);
    for (const PathMessage& m : inbox) {
      ++count[static_cast<std::size_t>(m.source) + 1];
    }
    for (std::size_t s = 1; s < count.size(); ++s) count[s] += count[s - 1];
    for (int s = 0; s <= max_source; ++s) {
      const auto i = static_cast<std::size_t>(s);
      if (count[i] != count[i + 1]) {
        groups_.push_back({s, count[i], count[i + 1]});
      }
    }
    ids_.resize(inbox.size());
    for (std::size_t i = 0; i < inbox.size(); ++i) {
      ids_[count[static_cast<std::size_t>(inbox[i].source)]++] =
          static_cast<std::uint32_t>(i);
    }
    // A source's messages usually arrive in the order it sent them; a
    // retried or overtaken one puts its group in (arrive, depart) order
    // here. Messages equal in both are interchangeable to the walk.
    const auto arrives_before = [&inbox](std::uint32_t a, std::uint32_t b) {
      return std::tie(inbox[a].arrive, inbox[a].depart) <
             std::tie(inbox[b].arrive, inbox[b].depart);
    };
    for (const Group& g : groups_) {
      const auto first = ids_.begin() + g.begin;
      const auto last = ids_.begin() + g.end;
      if (!std::is_sorted(first, last, arrives_before)) {
        std::sort(first, last, arrives_before);
      }
    }
  }

  bool built_ = false;
  std::vector<std::uint32_t> ids_;
  std::vector<Group> groups_;  ///< ascending source
};

}  // namespace

CriticalPath critical_path(const SpanStore& store, const MessageLog& messages,
                           double elapsed) {
  HETSCALE_REQUIRE(elapsed >= 0.0, "elapsed must be non-negative");
  CriticalPath path;
  path.elapsed_s = elapsed;
  if (elapsed <= 0.0) return path;

  std::vector<SpanClass> classes;
  classes.reserve(static_cast<std::size_t>(store.name_count()));
  for (int id = 0; id < store.name_count(); ++id) {
    classes.push_back(classify(store, id));
  }

  // The walk repeatedly needs "the last closed leaf span on this lane
  // beginning before the cursor", in (begin, end) order. A lane records its
  // spans in that order already — a nesting span is opened before anything
  // it covers — so the walk searches the lane buffer itself and steps over
  // the spans it skips. Only a lane with spans recorded ahead of time
  // (fault charges) or two leaf spans over one interval gets a copy of its
  // leaf spans sorted by (begin, end).
  const int lane_count = store.lane_count();
  const auto walked = [&classes](const Span& span) {
    return span.end >= span.begin &&  // not left open (deadlocked run)
           classes[static_cast<std::size_t>(span.name_id)] != SpanClass::kSkip;
  };
  std::vector<const Span*> view_first(static_cast<std::size_t>(lane_count));
  std::vector<const Span*> view_last(static_cast<std::size_t>(lane_count));
  std::vector<std::vector<Span>> reordered;
  // The run ends when its last leaf span does; walk backwards from there.
  int lane = -1;
  double latest_end = -1.0;
  for (int l = 0; l < lane_count; ++l) {
    const std::vector<Span>& spans = store.lane(l);
    bool ordered = true;
    const Span* prev = nullptr;      // previous span of the lane
    const Span* prev_leaf = nullptr;  // previous walked span of the lane
    for (const Span& span : spans) {
      ordered = ordered && (prev == nullptr || prev->begin <= span.begin);
      prev = &span;
      if (!walked(span)) continue;
      if (prev_leaf != nullptr) {
        // Equal keys stay in order only when zero-length: the walk treats
        // every zero-length span at an instant alike (it just moves the
        // cursor there), whereas which of two equal positive spans comes
        // last decides the path, and that is the sort's call.
        ordered = ordered && (walk_before(prev_leaf, &span) ||
                              (!walk_before(&span, prev_leaf) &&
                               prev_leaf->begin == prev_leaf->end));
      }
      prev_leaf = &span;
      if (span.end > latest_end) {
        latest_end = span.end;
        lane = l;
      }
    }
    const auto slot = static_cast<std::size_t>(l);
    if (ordered) {
      view_first[slot] = spans.data();
      view_last[slot] = spans.data() + spans.size();
      continue;
    }
    std::vector<const Span*> leaves;
    for (const Span& span : spans) {
      if (walked(span)) leaves.push_back(&span);
    }
    std::sort(leaves.begin(), leaves.end(), walk_before);
    std::vector<Span>& copy = reordered.emplace_back();
    copy.reserve(leaves.size());
    for (const Span* span : leaves) copy.push_back(*span);
    view_first[slot] = copy.data();
    view_last[slot] = copy.data() + copy.size();
  }
  // The cursor only moves back in time, so on every lane the answer only
  // moves left: each search starts where the lane's last one ended.
  std::vector<const Span*> hint = view_last;

  std::vector<InboxIndex> inboxes(
      static_cast<std::size_t>(messages.lane_count()));

  std::vector<PathSegment> reversed;
  auto emit = [&](int l, PathSegmentKind kind, int peer, double begin,
                  double end) {
    if (end <= begin) return;
    switch (kind) {
      case PathSegmentKind::kCompute: path.compute_s += end - begin; break;
      case PathSegmentKind::kComm: path.comm_s += end - begin; break;
      case PathSegmentKind::kWait: path.wait_s += end - begin; break;
      case PathSegmentKind::kFault: path.fault_s += end - begin; break;
    }
    reversed.push_back(
        PathSegment{l, static_cast<int>(kind), peer, begin, end});
  };

  double cursor = elapsed;
  // Every step strictly decreases the cursor past a span begin or a message
  // departure, so this bound is generous; it is a backstop, not a budget.
  const std::size_t max_steps = store.size() + messages.size() + 64;
  std::size_t steps = 0;
  while (cursor > 0.0 && lane >= 0) {
    if (++steps > max_steps) break;
    const Span* span = nullptr;
    if (lane < lane_count) {
      const Span* lo = view_first[static_cast<std::size_t>(lane)];
      const Span*& pos = hint[static_cast<std::size_t>(lane)];
      pos = first_at_or_after(lo, pos, cursor);
      for (const Span* at = pos; at != lo;) {
        if (walked(*--at)) {
          span = at;
          break;
        }
      }
    }
    if (span == nullptr) break;  // nothing earlier on this lane
    if (span->end < cursor) {
      // Idle gap between the span and the cursor: the lane was blocked with
      // no recorded activity.
      emit(lane, PathSegmentKind::kWait, -1, span->end, cursor);
      cursor = span->end;
      if (cursor <= 0.0) break;
    }
    switch (classes[static_cast<std::size_t>(span->name_id)]) {
      case SpanClass::kCompute:
        emit(lane, PathSegmentKind::kCompute, -1, span->begin, cursor);
        cursor = span->begin;
        break;
      case SpanClass::kFault:
        emit(lane, PathSegmentKind::kFault, -1, span->begin, cursor);
        cursor = span->begin;
        break;
      case SpanClass::kCommLocal:
        emit(lane, PathSegmentKind::kComm, span->peer, span->begin, cursor);
        cursor = span->begin;
        break;
      case SpanClass::kRecvWait: {
        // Find the message that satisfied this receive: same endpoints and
        // tag, arriving inside the blocked interval, latest (arrive,
        // depart) first. The receive resumed at the arrival instant, so
        // when the wire gated it, arrive == end.
        const PathMessage* found = nullptr;
        if (lane < messages.lane_count() && span->peer >= 0) {
          const std::vector<PathMessage>& inbox = messages.inbox(lane);
          const auto [lo, hi] =
              inboxes[static_cast<std::size_t>(lane)].from(inbox, span->peer);
          const std::uint32_t* at = std::upper_bound(
              lo, hi, span->end, [&inbox](double c, std::uint32_t i) {
                return c < inbox[i].arrive;
              });
          while (at != lo) {
            const PathMessage& m = inbox[*--at];
            if (m.arrive <= span->begin) break;
            if (m.tag != span->tag) continue;
            if (m.depart < cursor) {
              found = &m;
              break;
            }
          }
        }
        if (found != nullptr) {
          // The wire held the path from the departure to the cursor; the
          // walk continues on the sending rank at the departure instant.
          emit(lane, PathSegmentKind::kComm, found->source,
               std::max(found->depart, 0.0), cursor);
          cursor = found->depart;
          lane = found->source;
        } else {
          // No in-flight message covered the blocking (e.g. the payload
          // arrived before the receive was even posted): pure wait.
          emit(lane, PathSegmentKind::kWait, span->peer, span->begin,
               cursor);
          cursor = span->begin;
        }
        break;
      }
      case SpanClass::kSkip:
        // Unreachable: skipped spans never enter the walk lists.
        cursor = span->begin;
        break;
    }
  }
  // Whatever is left of [0, cursor] precedes all recorded activity on the
  // path (start-up skew, or a run with no spans at all).
  emit(lane, PathSegmentKind::kWait, -1, 0.0, cursor);

  path.segments.reserve(reversed.size());
  for (auto it = reversed.rbegin(); it != reversed.rend(); ++it) {
    // Merge abutting segments of one kind on one lane (the walk fragments
    // them at message departures and span joins).
    if (!path.segments.empty()) {
      PathSegment& last = path.segments.back();
      if (last.lane == it->lane && last.kind == it->kind &&
          last.peer == it->peer && last.end == it->begin) {
        last.end = it->end;
        continue;
      }
    }
    path.segments.push_back(*it);
  }
  return path;
}

}  // namespace hetscale::obs
