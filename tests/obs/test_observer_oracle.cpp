// Differential fuzz of the observer passes against their references.
//
// compute_time_budget() merges per-lane edge streams and critical_path()
// searches the lane buffers in place; tests/obs/reference_observers.cpp
// keeps the map-and-sort versions they replaced. Every seeded store below
// must give exactly the same doubles and the same segments from both. The
// generator stages what the fast paths have to get right: zero-length
// spans, barriers nesting leaf spans, spans left open, fault charges (and
// structural spans) recorded ahead of time, edges at one instant across
// and within lanes, equal (begin, end) spans of different kinds on one
// lane, and messages arriving out of order or from a lane without spans.
// Times mix a coarse dyadic grid (ties) with arbitrary doubles (so any
// change in summation order shows in the last bits).
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <vector>

#include "hetscale/obs/budget.hpp"
#include "hetscale/obs/critical_path.hpp"
#include "hetscale/obs/span.hpp"
#include "hetscale/support/rng.hpp"
#include "reference_observers.hpp"

namespace hetscale::obs {
namespace {

struct Names {
  int compute;
  int send;
  int recv;
  int barrier;
  int checkpoint;
  int rework;
  int other;

  explicit Names(SpanStore& store)
      : compute(store.intern("compute")),
        send(store.intern("send.wait")),
        recv(store.intern("recv.wait")),
        barrier(store.intern("barrier")),
        checkpoint(store.intern("checkpoint")),
        rework(store.intern("fault.rework")),
        other(store.intern("mystery")) {}
};

/// One seeded run: a store, its messages in recording order, and elapsed.
class FuzzRun {
 public:
  explicit FuzzRun(std::uint64_t seed) : rng_(seed), names_(store_) {
    lanes_ = static_cast<int>(rng_.uniform_int(1, 6));
    std::vector<double> clock(static_cast<std::size_t>(lanes_), 0.0);
    std::vector<std::size_t> open(static_cast<std::size_t>(lanes_), kNoSpan);
    const int steps = static_cast<int>(rng_.uniform_int(1, 120));
    double latest = 0.0;
    for (int step = 0; step < steps; ++step) {
      const int lane = static_cast<int>(rng_.uniform_int(0, lanes_ - 1));
      double& now = clock[static_cast<std::size_t>(lane)];
      now += gap();
      record_step(lane, now, open[static_cast<std::size_t>(lane)]);
      latest = std::max(latest, now);
    }
    // Close most barriers still open; leave the rest open.
    for (int lane = 0; lane < lanes_; ++lane) {
      std::size_t& handle = open[static_cast<std::size_t>(lane)];
      if (handle != kNoSpan && coin(0.7)) {
        double& now = clock[static_cast<std::size_t>(lane)];
        now += gap();
        store_.close(handle, now);
        latest = std::max(latest, now);
      }
    }
    // Stray messages: unmatched, from lanes without spans, out of order.
    const int strays = static_cast<int>(rng_.uniform_int(0, 8));
    for (int i = 0; i < strays; ++i) {
      const int src = static_cast<int>(rng_.uniform_int(0, lanes_ + 1));
      const int dst = static_cast<int>(rng_.uniform_int(0, lanes_ + 1));
      const double depart = instant(latest);
      message(src, dst, static_cast<int>(rng_.uniform_int(0, 3)), depart,
              depart + duration());
    }
    switch (rng_.uniform_int(0, 3)) {
      case 0: elapsed_ = latest; break;
      case 1: elapsed_ = latest * rng_.uniform(0.3, 1.0); break;  // clamps
      case 2: elapsed_ = latest + duration(); break;
      default: elapsed_ = instant(latest + 1.0); break;
    }
  }

  const SpanStore& store() const { return store_; }
  const MessageLog& log() const { return log_; }
  const std::vector<PathMessage>& messages() const { return messages_; }
  double elapsed() const { return elapsed_; }

 private:
  bool coin(double p) { return rng_.next_double() < p; }

  /// Half the values on a coarse dyadic grid (ties), half arbitrary.
  double duration() {
    if (coin(0.25)) return 0.0;
    if (coin(0.5)) return 0.25 * static_cast<double>(rng_.uniform_int(1, 4));
    return rng_.uniform(0.01, 1.3);
  }
  double gap() { return coin(0.4) ? 0.0 : duration(); }
  double instant(double horizon) {
    if (coin(0.5)) {
      return 0.25 * static_cast<double>(
                        rng_.uniform_int(0, static_cast<std::int64_t>(
                                                horizon * 4.0) + 1));
    }
    return rng_.uniform(0.0, horizon + 0.5);
  }

  int peer_of(int lane) {
    if (lanes_ == 1 || coin(0.1)) return lanes_;  // a lane with no spans
    int peer = static_cast<int>(rng_.uniform_int(0, lanes_ - 2));
    return peer >= lane ? peer + 1 : peer;
  }

  void message(int src, int dst, int tag, double depart, double arrive) {
    const PathMessage m{src, dst, tag, 8.0, depart, arrive};
    log_.record(m);
    messages_.push_back(m);
  }

  void record_step(int lane, double& now, std::size_t& barrier) {
    const int tag = static_cast<int>(rng_.uniform_int(0, 3));
    switch (rng_.uniform_int(0, 8)) {
      case 0:
      case 1: {  // compute, sometimes stretched by a fault recorded first
        const double d = duration();
        if (d > 0.0 && coin(0.3)) {
          const double at = now + d * rng_.uniform(0.0, 0.8);
          store_.record(lane, coin(0.5) ? names_.rework : names_.checkpoint,
                        at, at + d * 0.2);
        }
        store_.record(lane, names_.compute, now, now + d);
        now += d;
        break;
      }
      case 2: {  // blocking send, with its message
        const int peer = peer_of(lane);
        const double d = duration();
        store_.record(lane, names_.send, now, now + d, peer, tag, 8.0);
        message(lane, peer, tag, now, now + d + duration());
        now += d;
        break;
      }
      case 3:
      case 4: {  // blocking receive, usually released by a message
        const int peer = peer_of(lane);
        const double d = duration();
        if (coin(0.8)) {
          // Arrives at the end of the wait, or somewhere inside it, and
          // sometimes twice with one (arrive, depart).
          const double arrive =
              coin(0.6) ? now + d : now + d * rng_.uniform(0.0, 1.0);
          const double depart = arrive - duration();
          message(peer, lane, tag, depart, arrive);
          if (coin(0.15)) message(peer, lane, tag, depart, arrive);
          if (coin(0.15)) message(peer, lane, tag, depart - 0.5, arrive);
        }
        store_.record(lane, names_.recv, now, now + d, peer, tag, 8.0);
        now += d;
        break;
      }
      case 5: {  // open or close a barrier around later spans
        if (barrier == kNoSpan) {
          barrier = store_.open(lane, names_.barrier, now);
        } else {
          store_.close(barrier, now);
          barrier = kNoSpan;
        }
        break;
      }
      case 6: {  // two spans of different kinds over one (begin, end)
        const double d = coin(0.3) ? 0.0 : duration();
        store_.record(lane, coin(0.5) ? names_.compute : names_.rework, now,
                      now + d);
        const int peer = peer_of(lane);
        store_.record(lane, coin(0.5) ? names_.send : names_.recv, now,
                      now + d, peer, tag, 8.0);
        if (coin(0.5)) message(peer, lane, tag, now - 0.1, now + d);
        now += d;
        break;
      }
      case 7: {  // a structural span of an unknown kind, maybe ahead
        const double at = coin(0.3) ? now + duration() : now;
        store_.record(lane, names_.other, at, at + duration());
        break;
      }
      default: {  // a receive whose payload was already there
        store_.record(lane, names_.recv, now, now, peer_of(lane), tag, 8.0);
        break;
      }
    }
  }

  Rng rng_;
  SpanStore store_;
  Names names_;
  MessageLog log_;
  std::vector<PathMessage> messages_;
  int lanes_ = 1;
  double elapsed_ = 0.0;
};

constexpr std::uint64_t kSeeds = 3000;

TEST(ObserverOracle, BudgetMatchesReferenceExactly) {
  for (std::uint64_t seed = 1; seed <= kSeeds; ++seed) {
    const FuzzRun run(seed);
    const TimeBudget got = compute_time_budget(run.store(), run.elapsed());
    const TimeBudget want =
        reference::compute_time_budget(run.store(), run.elapsed());
    ASSERT_EQ(got.compute_s, want.compute_s) << "seed " << seed;
    ASSERT_EQ(got.comm_s, want.comm_s) << "seed " << seed;
    ASSERT_EQ(got.sequential_s, want.sequential_s) << "seed " << seed;
    ASSERT_EQ(got.fault_s, want.fault_s) << "seed " << seed;
    ASSERT_EQ(got.residual_s, want.residual_s) << "seed " << seed;
    ASSERT_EQ(got.elapsed_s, want.elapsed_s) << "seed " << seed;
  }
}

TEST(ObserverOracle, CriticalPathMatchesReferenceExactly) {
  for (std::uint64_t seed = 1; seed <= kSeeds; ++seed) {
    const FuzzRun run(seed);
    const CriticalPath got =
        critical_path(run.store(), run.log(), run.elapsed());
    const CriticalPath want =
        reference::critical_path(run.store(), run.messages(), run.elapsed());
    ASSERT_EQ(got.compute_s, want.compute_s) << "seed " << seed;
    ASSERT_EQ(got.comm_s, want.comm_s) << "seed " << seed;
    ASSERT_EQ(got.wait_s, want.wait_s) << "seed " << seed;
    ASSERT_EQ(got.fault_s, want.fault_s) << "seed " << seed;
    ASSERT_EQ(got.segments, want.segments) << "seed " << seed;
  }
}

TEST(ObserverOracle, StoresAndLogsKeepRecordingOrder) {
  for (std::uint64_t seed = 1; seed <= 200; ++seed) {
    const FuzzRun run(seed);
    const std::vector<Span> spans = run.store().spans();
    ASSERT_EQ(spans.size(), run.store().size());
    // Every lane buffer is the recording order restricted to the lane.
    std::vector<std::size_t> seen(
        static_cast<std::size_t>(run.store().lane_count()), 0);
    for (const Span& span : spans) {
      const auto lane = static_cast<std::size_t>(span.lane);
      const Span& filed = run.store().lane(span.lane)[seen[lane]++];
      ASSERT_EQ(filed.begin, span.begin);
      ASSERT_EQ(filed.name_id, span.name_id);
    }
    const std::vector<PathMessage> messages = run.log().messages();
    ASSERT_EQ(messages.size(), run.messages().size());
    for (std::size_t i = 0; i < messages.size(); ++i) {
      ASSERT_EQ(messages[i].source, run.messages()[i].source);
      ASSERT_EQ(messages[i].destination, run.messages()[i].destination);
      ASSERT_EQ(messages[i].arrive, run.messages()[i].arrive);
    }
  }
}

}  // namespace
}  // namespace hetscale::obs
