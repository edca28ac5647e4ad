// The partitioned simulation core (--sim-threads > 1): bit-identity with
// the sequential scheduler, eligibility fallbacks, and the partitioned
// failure paths.
//
// Every comparison here is exact (EXPECT_EQ on doubles, not EXPECT_NEAR):
// the conservative window protocol's whole contract is that partitioning
// changes host scheduling only, never a single simulated bit.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "hetscale/obs/profiler.hpp"
#include "hetscale/support/error.hpp"
#include "hetscale/support/units.hpp"
#include "hetscale/vmpi/machine.hpp"

namespace hetscale::vmpi {
namespace {

using des::Task;

machine::Cluster node_per_rank(int nodes, double mflops = 50.0) {
  machine::Cluster cluster;
  for (int i = 0; i < nodes; ++i) {
    cluster.add_node(
        "n" + std::to_string(i),
        machine::NodeSpec{"Test", 1, units::mflops(mflops), 1e9, 4e8, {1.0}});
  }
  return cluster;
}

net::NetworkParams fast_params() {
  net::NetworkParams p;
  p.remote = {1e-4, 1e7};
  p.per_message_overhead_s = 1e-5;
  return p;
}

net::LinkStats link_of(const net::NetworkStats& stats, std::size_t node) {
  return node < stats.links.size() ? stats.links[node] : net::LinkStats{};
}

void expect_same_result(const RunResult& a, const RunResult& b) {
  EXPECT_EQ(a.elapsed, b.elapsed);  // bit-equal, not approximately
  ASSERT_EQ(a.ranks.size(), b.ranks.size());
  for (std::size_t r = 0; r < a.ranks.size(); ++r) {
    EXPECT_EQ(a.ranks[r].compute_s, b.ranks[r].compute_s) << "rank " << r;
    EXPECT_EQ(a.ranks[r].comm_s, b.ranks[r].comm_s) << "rank " << r;
    EXPECT_EQ(a.ranks[r].messages_sent, b.ranks[r].messages_sent);
    EXPECT_EQ(a.ranks[r].bytes_sent, b.ranks[r].bytes_sent);
    EXPECT_EQ(a.ranks[r].finish, b.ranks[r].finish) << "rank " << r;
  }
  EXPECT_EQ(a.network.messages, b.network.messages);
  EXPECT_EQ(a.network.bytes, b.network.bytes);
  // The machine-wide wire/contention totals are the one observability-only
  // quantity folded across partitions (partition order) instead of in
  // global temporal order, so they can differ from the sequential sum by
  // float-summation rounding — a few ulps. They feed no simulated
  // behavior, no golden artifact, and no profile (profiled runs never
  // partition). Everything else is exact, including per-link stats: a
  // link belongs to one sending rank, hence one partition, so its
  // accumulation order matches the sequential schedule.
  EXPECT_NEAR(a.network.wire_seconds, b.network.wire_seconds,
              1e-12 * std::abs(a.network.wire_seconds));
  EXPECT_NEAR(a.network.contention_seconds, b.network.contention_seconds,
              1e-12 * std::abs(a.network.contention_seconds) + 1e-300);
  // A partitioned run presizes the link table to the node count, while a
  // sequential one grows it to the highest sender; idle tails compare as
  // frame-less links.
  const std::size_t nodes =
      std::max(a.network.links.size(), b.network.links.size());
  for (std::size_t node = 0; node < nodes; ++node) {
    const net::LinkStats la = link_of(a.network, node);
    const net::LinkStats lb = link_of(b.network, node);
    EXPECT_EQ(la.frames, lb.frames) << "node " << node;
    EXPECT_EQ(la.bytes, lb.bytes) << "node " << node;
    EXPECT_EQ(la.wire_s, lb.wire_s) << "node " << node;
    EXPECT_EQ(la.stall_s, lb.stall_s) << "node " << node;
  }
}

/// A mixed workload touching every delivery path: ring p2p with unequal
/// compute, a broadcast, a reduction, and a gather.
Machine::Program mixed_program() {
  return [](Comm& comm) -> Task<void> {
    const int p = comm.size();
    const int next = (comm.rank() + 1) % p;
    const int prev = (comm.rank() + p - 1) % p;
    for (int round = 0; round < 3; ++round) {
      co_await comm.compute(1e6 * (comm.rank() + 1));
      co_await comm.send(next, 10 + round, 256.0,
                         Payload(static_cast<double>(comm.rank())));
      const auto msg = co_await comm.recv(prev, 10 + round);
      EXPECT_EQ(msg.payload.scalar(), static_cast<double>(prev));
    }
    Payload seed;
    if (comm.rank() == 0) seed = Payload(42.0);
    const auto root_value = co_await comm.bcast(0, 64.0, std::move(seed));
    EXPECT_EQ(root_value.scalar(), 42.0);
    const double sum =
        co_await comm.reduce_sum(0, static_cast<double>(comm.rank()));
    if (comm.rank() == 0) {
      EXPECT_EQ(sum, static_cast<double>(p * (p - 1) / 2));
    }
    const auto parts = co_await comm.gather(
        0, 128.0, Payload(static_cast<double>(comm.rank() * 3)));
    if (comm.rank() == 0) {
      EXPECT_EQ(parts.size(), static_cast<std::size_t>(p));
      for (std::size_t r = 0; r < parts.size(); ++r) {
        EXPECT_EQ(parts[r].scalar(), static_cast<double>(r * 3));
      }
    }
    co_await comm.barrier();
  };
}

RunResult run_mixed(int ranks, int sim_threads) {
  auto machine = Machine::switched(node_per_rank(ranks), fast_params());
  machine.set_sim_threads(sim_threads);
  return machine.run(mixed_program());
}

TEST(Partitioned, MixedWorkloadBitIdenticalAcrossSimThreads) {
  const RunResult sequential = run_mixed(8, 1);
  expect_same_result(sequential, run_mixed(8, 2));
  expect_same_result(sequential, run_mixed(8, 3));  // uneven partitions
  expect_same_result(sequential, run_mixed(8, 8));
}

/// Even ranks send to their odd neighbour; odd ranks never send, so the
/// link table has holes and a sequential run's ends below the node count.
RunResult run_even_senders(int sim_threads) {
  auto machine = Machine::switched(node_per_rank(8), fast_params());
  machine.set_sim_threads(sim_threads);
  return machine.run([](Comm& comm) -> Task<void> {
    for (int round = 0; round < 4; ++round) {
      if (comm.rank() % 2 == 0) {
        co_await comm.send(comm.rank() + 1, round, 512.0 * (comm.rank() + 1),
                           {});
      } else {
        (void)co_await comm.recv(comm.rank() - 1, round);
      }
    }
  });
}

TEST(Partitioned, PerLinkStatsMatchTheSequentialRun) {
  const RunResult sequential = run_even_senders(1);
  const RunResult partitioned = run_even_senders(4);
  expect_same_result(sequential, partitioned);
  for (std::size_t node = 0; node < 8; ++node) {
    const net::LinkStats link = link_of(partitioned.network, node);
    EXPECT_EQ(link.frames, node % 2 == 0 ? 4u : 0u) << "node " << node;
    EXPECT_EQ(link.bytes, node % 2 == 0 ? 4 * 512.0 * (node + 1) : 0.0);
  }
}

// The profile lists exactly the nodes that sent a frame, in node order.
TEST(Partitioned, ProfileListsOnlySendingLinks) {
  obs::Profiler profiler;
  {
    obs::ProfilerScope scope(profiler);
    (void)run_even_senders(1);
  }
  ASSERT_EQ(profiler.runs(), 1u);
  const obs::RunProfile run = profiler.sorted_runs().front();
  std::vector<int> nodes;
  for (const obs::LinkProfile& link : run.links) nodes.push_back(link.node);
  EXPECT_EQ(nodes, (std::vector<int>{0, 2, 4, 6}));
}

TEST(Partitioned, ThreadCountBeyondWorldSizeClamps) {
  const RunResult sequential = run_mixed(4, 1);
  expect_same_result(sequential, run_mixed(4, 64));
}

TEST(Partitioned, EventsProcessedSumsThePartitionSchedulers) {
  auto machine = Machine::switched(node_per_rank(8), fast_params());
  machine.set_sim_threads(4);
  (void)machine.run(mixed_program());
  // The sequential scheduler saw nothing; the partitions did all the work.
  EXPECT_EQ(machine.scheduler().events_processed(), 0u);
  EXPECT_GT(machine.events_processed(), 0u);
}

// The window count is host telemetry, but not host-timed: the windows are
// a pure function of the model and the partition count.
TEST(Partitioned, WindowCountIsReportedAndRepeatable) {
  const auto windows = [](int sim_threads) {
    auto machine = Machine::switched(node_per_rank(8), fast_params());
    machine.set_sim_threads(sim_threads);
    (void)machine.run(mixed_program());
    EXPECT_LE(machine.conservative_windows(), machine.events_processed());
    return machine.conservative_windows();
  };
  EXPECT_EQ(windows(1), 0u);  // sequential: no windows
  const std::uint64_t four = windows(4);
  EXPECT_GT(four, 0u);
  EXPECT_EQ(windows(4), four);
}

TEST(Partitioned, TreeCollectivesBitIdenticalAtScale) {
  const auto run_tree = [](int sim_threads) {
    auto machine = Machine::switched(node_per_rank(32), fast_params(),
                                     CollectiveTuning::tree());
    machine.set_sim_threads(sim_threads);
    return machine.run([](Comm& comm) -> Task<void> {
      for (int round = 0; round < 2; ++round) {
        Payload seed;
        if (comm.rank() == 0) seed = Payload(1.5);
        (void)co_await comm.bcast(0, 64.0, std::move(seed));
        (void)co_await comm.reduce_sum(0, 1.0);
        (void)co_await comm.gather(0, 32.0, Payload(2.0));
        co_await comm.barrier();
      }
    });
  };
  const RunResult sequential = run_tree(1);
  expect_same_result(sequential, run_tree(8));
}

TEST(Partitioned, WildcardRecvRejected) {
  auto machine = Machine::switched(node_per_rank(2), fast_params());
  machine.set_sim_threads(2);
  try {
    machine.run([](Comm& comm) -> Task<void> {
      if (comm.rank() == 0) {
        co_await comm.send(1, 5, 64.0, {});
      } else {
        (void)co_await comm.recv(kAnySource, 5);
      }
    });
    FAIL() << "wildcard recv should be rejected when partitioned";
  } catch (const Error& error) {
    EXPECT_NE(std::string(error.what()).find("wildcard"), std::string::npos);
  }
}

TEST(Partitioned, SpecificSourceRecvStillWorks) {
  // The same exchange with the source named is fine under partitioning.
  auto machine = Machine::switched(node_per_rank(2), fast_params());
  machine.set_sim_threads(2);
  auto value = std::make_shared<double>(0.0);
  machine.run([value](Comm& comm) -> Task<void> {
    if (comm.rank() == 0) {
      co_await comm.send(1, 5, 64.0, Payload(7.0));
    } else {
      const auto msg = co_await comm.recv(0, 5);
      *value = msg.payload.scalar();
    }
  });
  EXPECT_EQ(*value, 7.0);
}

TEST(Partitioned, DeadlockDiagnosisNamesTheBlockedRank) {
  auto machine = Machine::switched(node_per_rank(4), fast_params());
  machine.set_sim_threads(2);
  try {
    machine.run([](Comm& comm) -> Task<void> {
      if (comm.rank() == 3) {
        (void)co_await comm.recv(0, 99);  // nobody sends tag 99
      }
      co_return;
    });
    FAIL() << "expected a deadlock";
  } catch (const des::DeadlockError& error) {
    const std::string what = error.what();
    EXPECT_NE(what.find("matching receive"), std::string::npos) << what;
  }
}

TEST(Partitioned, SharedBusFallsBackToSequential) {
  // A shared bus has no per-link latency floor (lookahead 0), so the
  // machine must quietly run the classic sequential schedule — and match
  // a sim-threads=1 shared-bus run exactly.
  const auto run_bus = [](int sim_threads) {
    auto machine = Machine::shared_bus(node_per_rank(4), fast_params());
    machine.set_sim_threads(sim_threads);
    return machine.run(mixed_program());
  };
  const RunResult sequential = run_bus(1);
  expect_same_result(sequential, run_bus(8));
}

TEST(Partitioned, ProfiledRunFallsBackToSequentialAndStillProfiles) {
  obs::Profiler profiler;
  {
    obs::ProfilerScope scope(profiler);
    auto machine = Machine::switched(node_per_rank(4), fast_params());
    machine.set_sim_threads(4);
    (void)machine.run(mixed_program());
  }
  ASSERT_EQ(profiler.runs(), 1u);
  const auto runs = profiler.sorted_runs();
  EXPECT_GT(runs[0].des_events, 0u);
}

TEST(Partitioned, SetSimThreadsValidates) {
  auto machine = Machine::switched(node_per_rank(2), fast_params());
  EXPECT_THROW(machine.set_sim_threads(0), Error);
  machine.set_sim_threads(2);
  (void)machine.run([](Comm&) -> Task<void> { co_return; });
  EXPECT_THROW(machine.set_sim_threads(4), Error);
}

}  // namespace
}  // namespace hetscale::vmpi
