// The large-p engine's contracts: allreduce's on-wire budget under both
// collective families (the flat family really pays reduce + bcast — the
// "double charge" — and the CommMatrix pins exactly what each family
// costs), the binomial broadcast's equivalence to the flat one for every
// root and world size, the mailbox's (source, tag) index semantics, and
// the DES queue / coroutine-frame high-water marks staying linear in p at
// 4096 concurrent rank actors.
#include <gtest/gtest.h>

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "hetscale/des/scheduler.hpp"
#include "hetscale/obs/profiler.hpp"
#include "hetscale/support/units.hpp"
#include "hetscale/vmpi/machine.hpp"
#include "hetscale/vmpi/message.hpp"

namespace hetscale::vmpi {
namespace {

using des::Task;

machine::Cluster test_cluster(int nodes) {
  machine::Cluster cluster;
  for (int i = 0; i < nodes; ++i) {
    cluster.add_node(
        "n" + std::to_string(i),
        machine::NodeSpec{"Test", 1, units::mflops(50.0), 1e9, 4e8, {1.0}});
  }
  return cluster;
}

/// Totals of one phase across the whole CommMatrix.
struct PhaseTotal {
  std::uint64_t messages = 0;
  double bytes = 0.0;
};

PhaseTotal phase_total(const std::vector<obs::CommCell>& cells,
                       obs::CommPhase phase) {
  PhaseTotal total;
  for (const obs::CommCell& cell : cells) {
    if (cell.phase != static_cast<int>(phase)) continue;
    total.messages += cell.messages;
    total.bytes += cell.bytes;
  }
  return total;
}

/// One allreduce_sum of rank+1 over p ranks under `tuning`; checks every
/// rank got p(p+1)/2 and returns the traced CommMatrix cells.
std::vector<obs::CommCell> run_allreduce(int p,
                                         const CollectiveTuning& tuning) {
  auto machine = Machine::switched(test_cluster(p), {}, tuning);
  auto& tracer = machine.enable_tracing();
  auto correct = std::make_shared<int>(0);
  const double expected = p * (p + 1) / 2.0;
  machine.run([correct, expected](Comm& comm) -> Task<void> {
    const double total = co_await comm.allreduce_sum(comm.rank() + 1.0);
    if (total == expected) ++*correct;
  });
  EXPECT_EQ(*correct, p) << "allreduce value wrong on some rank at p=" << p;
  return tracer.comm().cells();
}

// Satellite regression for the allreduce "double charge": the legacy flat
// family implements allreduce as reduce (a flat gather of p scalars to the
// root) followed by a flat bcast — 2(p-1) messages and 16(p-1) bytes on
// the wire, attributed to the gather and bcast phases. Pinning the exact
// budget keeps any future rewrite from silently doubling it again.
TEST(LargePEngine, AllreduceFlatFamilyPaysReducePlusBcast) {
  const int p = 5;
  const auto cells = run_allreduce(p, CollectiveTuning::legacy_flat());
  const PhaseTotal gather = phase_total(cells, obs::CommPhase::kGather);
  const PhaseTotal bcast = phase_total(cells, obs::CommPhase::kBcast);
  const PhaseTotal p2p = phase_total(cells, obs::CommPhase::kP2p);
  EXPECT_EQ(gather.messages, static_cast<std::uint64_t>(p - 1));
  EXPECT_DOUBLE_EQ(gather.bytes, 8.0 * (p - 1));
  EXPECT_EQ(bcast.messages, static_cast<std::uint64_t>(p - 1));
  EXPECT_DOUBLE_EQ(bcast.bytes, 8.0 * (p - 1));
  EXPECT_EQ(p2p.messages, 0u);
  std::uint64_t all = 0;
  for (const obs::CommCell& cell : cells) all += cell.messages;
  EXPECT_EQ(all, static_cast<std::uint64_t>(2 * (p - 1)));
}

// The recursive-doubling family pays one butterfly instead: p a power of
// two costs exactly p*log2(p) messages, and a remainder of rem ranks adds
// one fold-in and one unfold message each — all in the allreduce phase.
TEST(LargePEngine, AllreduceDoublingFamilyMessageBudget) {
  {  // p = 8: pure butterfly, 8 * 3 messages.
    const auto cells = run_allreduce(8, CollectiveTuning::tree());
    const PhaseTotal allreduce =
        phase_total(cells, obs::CommPhase::kAllreduce);
    EXPECT_EQ(allreduce.messages, 24u);
    EXPECT_DOUBLE_EQ(allreduce.bytes, 8.0 * 24);
    std::uint64_t all = 0;
    for (const obs::CommCell& cell : cells) all += cell.messages;
    EXPECT_EQ(all, 24u);
  }
  {  // p = 5: 4 * log2(4) butterfly + 1 fold-in + 1 unfold = 10.
    const auto cells = run_allreduce(5, CollectiveTuning::tree());
    const PhaseTotal allreduce =
        phase_total(cells, obs::CommPhase::kAllreduce);
    EXPECT_EQ(allreduce.messages, 10u);
    EXPECT_DOUBLE_EQ(allreduce.bytes, 8.0 * 10);
  }
}

/// One bcast of `value` from `root` under `tuning`: asserts delivery on
/// every rank, then returns {total messages, total bytes, elapsed}.
struct BcastRun {
  std::uint64_t messages = 0;
  double bytes = 0.0;
  double elapsed = 0.0;
};

BcastRun run_bcast_traced(int p, int root, const CollectiveTuning& tuning) {
  auto machine = Machine::switched(test_cluster(p), {}, tuning);
  auto& tracer = machine.enable_tracing();
  auto delivered = std::make_shared<int>(0);
  const double value = 100.0 + root;
  const auto result =
      machine.run([root, value, delivered](Comm& comm) -> Task<void> {
        Payload payload;
        if (comm.rank() == root) payload = Payload(value);
        const Payload out = co_await comm.bcast(root, 64.0, payload);
        if (out.scalar() == value) ++*delivered;
      });
  EXPECT_EQ(*delivered, p) << "bcast lost the payload at p=" << p
                           << " root=" << root;
  BcastRun run;
  run.messages = tracer.comm().total_messages();
  for (const obs::CommCell& cell : tracer.comm().cells()) {
    run.bytes += cell.bytes;
  }
  run.elapsed = result.elapsed;
  return run;
}

// Satellite property suite: for every world size 1..17 and every root, the
// binomial broadcast delivers the root's payload to all ranks and its
// on-wire budget (p-1 messages of the nominal size) matches the flat
// tree's exactly — the algorithms differ only in *when* messages travel.
TEST(LargePEngine, BcastBinomialMatchesFlatForEveryRootAndWorldSize) {
  for (int p = 1; p <= 17; ++p) {
    for (int root = 0; root < p; ++root) {
      const BcastRun flat =
          run_bcast_traced(p, root, CollectiveTuning::legacy_flat());
      const BcastRun binomial =
          run_bcast_traced(p, root, CollectiveTuning::tree());
      EXPECT_EQ(flat.messages, static_cast<std::uint64_t>(p - 1));
      EXPECT_EQ(binomial.messages, flat.messages)
          << "p=" << p << " root=" << root;
      EXPECT_DOUBLE_EQ(binomial.bytes, flat.bytes)
          << "p=" << p << " root=" << root;
    }
  }
}

// Bit-identical virtual time across repeated runs — the collectives are
// deterministic functions of (p, root, tuning), nothing else.
TEST(LargePEngine, BcastElapsedIsBitIdenticalAcrossRuns) {
  for (const auto& tuning :
       {CollectiveTuning::legacy_flat(), CollectiveTuning::tree()}) {
    const BcastRun first = run_bcast_traced(13, 4, tuning);
    const BcastRun again = run_bcast_traced(13, 4, tuning);
    EXPECT_EQ(first.elapsed, again.elapsed);
    EXPECT_EQ(first.messages, again.messages);
  }
}

Message make_message(int source, int tag, double value) {
  return Message{source, tag, /*bytes=*/8.0, Payload(value), /*arrival=*/0.0};
}

// The (source, tag) index takes messages in post order per key.
TEST(LargePEngine, MailboxIndexedTakeIsFifoPerKey) {
  des::Scheduler scheduler;
  Mailbox box(scheduler);
  box.post(make_message(1, 7, 1.0));
  box.post(make_message(1, 7, 2.0));
  box.post(make_message(2, 7, 3.0));
  EXPECT_EQ(box.pending_count(), 3u);

  auto first = box.take_match(1, 7);
  ASSERT_TRUE(first.has_value());
  EXPECT_DOUBLE_EQ(first->payload.scalar(), 1.0);
  auto second = box.take_match(1, 7);
  ASSERT_TRUE(second.has_value());
  EXPECT_DOUBLE_EQ(second->payload.scalar(), 2.0);
  EXPECT_FALSE(box.take_match(1, 7).has_value());

  auto other = box.take_match(2, 7);
  ASSERT_TRUE(other.has_value());
  EXPECT_DOUBLE_EQ(other->payload.scalar(), 3.0);
  EXPECT_EQ(box.pending_count(), 0u);
}

// A wildcard take honours MPI's non-overtaking rule across keys, and the
// indexed path then skips the slot the wildcard consumed.
TEST(LargePEngine, MailboxWildcardAndIndexInterleave) {
  des::Scheduler scheduler;
  Mailbox box(scheduler);
  box.post(make_message(1, 7, 10.0));
  box.post(make_message(1, 8, 20.0));
  box.post(make_message(1, 7, 30.0));

  auto any = box.take_match(kAnySource, kAnyTag);
  ASSERT_TRUE(any.has_value());
  EXPECT_DOUBLE_EQ(any->payload.scalar(), 10.0);  // oldest post overall

  auto indexed = box.take_match(1, 7);  // must skip the consumed slot
  ASSERT_TRUE(indexed.has_value());
  EXPECT_DOUBLE_EQ(indexed->payload.scalar(), 30.0);

  auto by_source = box.take_match(1, kAnyTag);
  ASSERT_TRUE(by_source.has_value());
  EXPECT_DOUBLE_EQ(by_source->payload.scalar(), 20.0);
  EXPECT_FALSE(box.take_match(kAnySource, kAnyTag).has_value());
}

// Tag churn (a fresh tag per step, as pipelined GE mints) with a full drain
// between steps: each drain empties the index by bumping its epoch, and the
// recycled entries must never match a stale slot.
TEST(LargePEngine, MailboxIndexSurvivesKeyChurnAndDrains) {
  des::Scheduler scheduler;
  Mailbox box(scheduler);
  for (int step = 0; step < 200; ++step) {
    box.post(make_message(0, step, step + 0.5));
    box.post(make_message(1, step, step + 0.25));
    EXPECT_FALSE(box.take_match(2, step).has_value());
    auto a = box.take_match(0, step);
    ASSERT_TRUE(a.has_value());
    EXPECT_DOUBLE_EQ(a->payload.scalar(), step + 0.5);
    auto b = box.take_match(1, step);
    ASSERT_TRUE(b.has_value());
    EXPECT_DOUBLE_EQ(b->payload.scalar(), step + 0.25);
    EXPECT_FALSE(box.take_match(0, step).has_value());
    EXPECT_EQ(box.pending_count(), 0u);
  }
}

// 101 keys between two drains grow the index past its size cap, so the
// drain frees the table outright. Posts after that must land in a fresh
// table, where takes of each key still find their own message.
TEST(LargePEngine, MailboxMatchesAfterTheIndexClears) {
  des::Scheduler scheduler;
  Mailbox box(scheduler);
  for (int tag = 0; tag < 100; ++tag) box.post(make_message(3, tag, tag));
  box.post(make_message(0, 7, -1.0));
  for (int tag = 99; tag >= 0; --tag) {
    auto m = box.take_match(3, tag);
    ASSERT_TRUE(m.has_value());
    EXPECT_DOUBLE_EQ(m->payload.scalar(), tag);
  }
  auto last = box.take_match(0, 7);  // full drain: the table is freed
  ASSERT_TRUE(last.has_value());
  EXPECT_DOUBLE_EQ(last->payload.scalar(), -1.0);

  box.post(make_message(0, 7, 1.0));
  box.post(make_message(0, 8, 2.0));
  auto again = box.take_match(0, 7);
  ASSERT_TRUE(again.has_value());
  EXPECT_DOUBLE_EQ(again->payload.scalar(), 1.0);
  auto other = box.take_match(0, 8);
  ASSERT_TRUE(other.has_value());
  EXPECT_DOUBLE_EQ(other->payload.scalar(), 2.0);
  EXPECT_FALSE(box.take_match(0, 7).has_value());
  EXPECT_EQ(box.pending_count(), 0u);
}

// 4096 concurrent rank actors: the ladder queue's high-water mark and the
// live coroutine-frame peak must stay linear in p (each rank contributes
// O(1) pending events and a bounded coroutine stack), not p log p or p^2 —
// the memory contract the large-p scenarios rely on.
TEST(LargePEngine, FourKActorsKeepQueueAndFramesLinear) {
  constexpr int kRanks = 4096;
  obs::Profiler profiler;
  obs::ProfilerScope scope(profiler);
  auto machine = Machine::switched(test_cluster(kRanks));
  machine.run([](Comm& comm) -> Task<void> {
    co_await comm.barrier();
    (void)co_await comm.allreduce_sum(1.0);
    co_await comm.barrier();
  });
  ASSERT_EQ(profiler.runs(), 1u);
  const obs::RunProfile run = profiler.sorted_runs().front();
  EXPECT_GT(run.des_queue_depth_max, 0u);
  EXPECT_LE(run.des_queue_depth_max, 4u * kRanks);
  EXPECT_GT(run.frame_live_peak, static_cast<std::size_t>(kRanks));
  EXPECT_LE(run.frame_live_peak, 8u * kRanks);
}

}  // namespace
}  // namespace hetscale::vmpi
