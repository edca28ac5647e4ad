#include "hetscale/obs/span.hpp"

#include <limits>
#include <utility>

#include "hetscale/support/error.hpp"

namespace hetscale::obs {

namespace {

SpanCategory infer_category(const std::string& name) {
  if (name == "compute") return SpanCategory::kCompute;
  if (name == "send.wait" || name == "recv.wait" || name == "barrier") {
    return SpanCategory::kComm;
  }
  if (name == "checkpoint" || name.rfind("fault.", 0) == 0) {
    return SpanCategory::kFault;
  }
  return SpanCategory::kOther;
}

// An open() handle names the lane and the span's index in it.
constexpr int kHandleShift = 32;

}  // namespace

int SpanStore::intern(const std::string& name) {
  return intern(name, infer_category(name));
}

int SpanStore::intern(const std::string& name, SpanCategory category) {
  HETSCALE_REQUIRE(!name.empty(), "span name must be non-empty");
  const auto it = ids_.find(name);
  if (it != ids_.end()) return it->second;
  const int id = static_cast<int>(names_.size());
  names_.push_back(name);
  categories_.push_back(category);
  ids_.emplace(name, id);
  return id;
}

const std::string& SpanStore::name(int id) const {
  HETSCALE_REQUIRE(id >= 0 && static_cast<std::size_t>(id) < names_.size(),
                   "span name id out of range");
  return names_[static_cast<std::size_t>(id)];
}

SpanCategory SpanStore::category(int id) const {
  HETSCALE_REQUIRE(id >= 0 && static_cast<std::size_t>(id) < names_.size(),
                   "span name id out of range");
  return categories_[static_cast<std::size_t>(id)];
}

const std::vector<Span>& SpanStore::lane(int lane) const {
  HETSCALE_REQUIRE(lane >= 0 && lane < lane_count_, "span lane out of range");
  return lanes_[static_cast<std::size_t>(lane)].spans;
}

SpanStore::Lane& SpanStore::lane_for_record(int lane) {
  if (lane < lane_count_) {
    HETSCALE_REQUIRE(lane >= 0, "span lanes must be non-negative");
    return lanes_[static_cast<std::size_t>(lane)];
  }
  HETSCALE_REQUIRE(lane >= 0 && lane < std::numeric_limits<int>::max(),
                   "span lane out of range");
  lanes_.resize(static_cast<std::size_t>(lane) + 1);
  lane_count_ = lane + 1;
  return lanes_[static_cast<std::size_t>(lane)];
}

std::uint32_t SpanStore::next_order() {
  HETSCALE_CHECK(size_ < std::numeric_limits<std::uint32_t>::max(),
                 "span store is full");
  return static_cast<std::uint32_t>(size_++);
}

void SpanStore::record(int lane, int name_id, double begin, double end,
                       int peer, int tag, double bytes) {
  HETSCALE_REQUIRE(end >= begin, "span must not end before it begins");
  name(name_id);  // bounds check
  Lane& slot = lane_for_record(lane);
  slot.spans.push_back(Span{lane, name_id, begin, end, slot.depth, peer, tag,
                            next_order(), bytes});
}

std::size_t SpanStore::open(int lane, int name_id, double begin) {
  name(name_id);  // bounds check
  Lane& slot = lane_for_record(lane);
  const std::size_t handle =
      (static_cast<std::size_t>(lane) << kHandleShift) | slot.spans.size();
  // end < begin marks the span as open; close() fills the real end.
  slot.spans.push_back(Span{lane, name_id, begin, begin - 1.0, slot.depth, -1,
                            0, next_order(), 0.0});
  ++slot.depth;
  ++open_count_;
  return handle;
}

void SpanStore::close(std::size_t handle, double end) {
  if (handle == kNoSpan) return;
  const std::size_t lane = handle >> kHandleShift;
  const std::size_t index = handle & ((std::size_t{1} << kHandleShift) - 1);
  HETSCALE_REQUIRE(lane < static_cast<std::size_t>(lane_count_) &&
                       index < lanes_[lane].spans.size(),
                   "span handle out of range");
  Span& span = lanes_[lane].spans[index];
  HETSCALE_REQUIRE(span.end < span.begin, "span is already closed");
  HETSCALE_REQUIRE(end >= span.begin, "span must not end before it begins");
  span.end = end;
  --lanes_[lane].depth;
  --open_count_;
}

std::vector<Span> SpanStore::spans() const {
  // The recording positions are a permutation of 0 .. size_ - 1.
  std::vector<Span> out(size_);
  for (int l = 0; l < lane_count_; ++l) {
    for (const Span& span : lanes_[static_cast<std::size_t>(l)].spans) {
      out[span.order] = span;
    }
  }
  return out;
}

double SpanStore::clock_now() const {
  HETSCALE_REQUIRE(clock_ != nullptr,
                   "no clock bound (SpanStore::bind_clock)");
  return clock_();
}

ScopedSpan::ScopedSpan(SpanStore& store, int lane, int name_id)
    : store_(&store), handle_(store.open(lane, name_id, store.clock_now())) {}

ScopedSpan::~ScopedSpan() { store_->close(handle_, store_->clock_now()); }

}  // namespace hetscale::obs
