#include "hetscale/obs/span.hpp"

#include <gtest/gtest.h>

#include "hetscale/support/error.hpp"

namespace hetscale::obs {
namespace {

TEST(Span, InternInfersTaxonomyCategories) {
  SpanStore store;
  EXPECT_EQ(store.category(store.intern("compute")), SpanCategory::kCompute);
  EXPECT_EQ(store.category(store.intern("send.wait")), SpanCategory::kComm);
  EXPECT_EQ(store.category(store.intern("recv.wait")), SpanCategory::kComm);
  EXPECT_EQ(store.category(store.intern("barrier")), SpanCategory::kComm);
  EXPECT_EQ(store.category(store.intern("checkpoint")), SpanCategory::kFault);
  EXPECT_EQ(store.category(store.intern("fault.rework")),
            SpanCategory::kFault);
  EXPECT_EQ(store.category(store.intern("mystery")), SpanCategory::kOther);
}

TEST(Span, InternIsIdempotent) {
  SpanStore store;
  const int a = store.intern("compute");
  EXPECT_EQ(store.intern("compute"), a);
  EXPECT_EQ(store.name(a), "compute");
}

TEST(Span, RecordKeepsOrderAndPayload) {
  SpanStore store;
  const int send = store.intern("send.wait");
  store.record(/*lane=*/1, send, 0.5, 2.0, /*peer=*/0, /*tag=*/7,
               /*bytes=*/64.0);
  ASSERT_EQ(store.spans().size(), 1u);
  const Span span = store.spans().front();
  EXPECT_EQ(span.lane, 1);
  EXPECT_DOUBLE_EQ(span.begin, 0.5);
  EXPECT_DOUBLE_EQ(span.end, 2.0);
  EXPECT_EQ(span.peer, 0);
  EXPECT_EQ(span.tag, 7);
  EXPECT_DOUBLE_EQ(span.bytes, 64.0);
  EXPECT_EQ(span.depth, 0);
}

TEST(Span, RecordRejectsNegativeDuration) {
  SpanStore store;
  const int id = store.intern("compute");
  EXPECT_THROW(store.record(0, id, 2.0, 1.0), PreconditionError);
}

TEST(Span, OpenCloseNestsDepthPerLane) {
  SpanStore store;
  const int barrier = store.intern("barrier");
  const int send = store.intern("send.wait");

  const std::size_t outer = store.open(/*lane=*/0, barrier, 1.0);
  EXPECT_EQ(store.open_count(), 1u);
  store.record(/*lane=*/0, send, 1.0, 2.0);   // nested in the barrier
  store.record(/*lane=*/3, send, 1.0, 2.0);   // other lane: no nesting
  store.close(outer, 3.0);
  EXPECT_EQ(store.open_count(), 0u);

  ASSERT_EQ(store.spans().size(), 3u);
  EXPECT_EQ(store.spans()[1].depth, 1);  // lane 0, inside the barrier
  EXPECT_EQ(store.spans()[2].depth, 0);  // lane 3
  EXPECT_EQ(store.spans()[0].depth, 0);  // the barrier itself
  EXPECT_DOUBLE_EQ(store.spans()[0].end, 3.0);
}

TEST(Span, UnclosedSpanIsMarkedAndCountable) {
  SpanStore store;
  const int barrier = store.intern("barrier");
  store.open(0, barrier, 5.0);
  EXPECT_EQ(store.open_count(), 1u);
  ASSERT_EQ(store.spans().size(), 1u);
  EXPECT_LT(store.spans().front().end, store.spans().front().begin);
}

TEST(Span, CloseIgnoresNoSpanHandle) {
  SpanStore store;
  store.close(kNoSpan, 1.0);  // must be a no-op, not a crash
  EXPECT_TRUE(store.empty());
}

TEST(Span, DoubleCloseThrows) {
  SpanStore store;
  const std::size_t handle = store.open(0, store.intern("barrier"), 0.0);
  store.close(handle, 1.0);
  EXPECT_THROW(store.close(handle, 2.0), PreconditionError);
}

TEST(Span, ScopedSpanUsesBoundClock) {
  SpanStore store;
  double now = 10.0;
  store.bind_clock([&now] { return now; });
  {
    ScopedSpan span(store, /*lane=*/2, store.intern("compute"));
    now = 12.5;
  }
  ASSERT_EQ(store.spans().size(), 1u);
  EXPECT_DOUBLE_EQ(store.spans().front().begin, 10.0);
  EXPECT_DOUBLE_EQ(store.spans().front().end, 12.5);
  EXPECT_EQ(store.open_count(), 0u);
}

}  // namespace
}  // namespace hetscale::obs
