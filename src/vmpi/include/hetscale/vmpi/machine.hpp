// Machine — binds a Cluster, a Network, and a Scheduler into a runnable
// virtual parallel computer, and launches SPMD programs on it.
#pragma once

#include <array>
#include <cstdint>
#include <functional>
#include <limits>
#include <memory>
#include <vector>

#include "hetscale/des/scheduler.hpp"
#include "hetscale/des/task.hpp"
#include "hetscale/des/telemetry.hpp"
#include "hetscale/machine/cluster.hpp"
#include "hetscale/net/network.hpp"
#include "hetscale/obs/profiler.hpp"
#include "hetscale/vmpi/comm.hpp"
#include "hetscale/vmpi/faults.hpp"
#include "hetscale/vmpi/message.hpp"
#include "hetscale/vmpi/trace.hpp"

namespace hetscale::vmpi {

/// Per-rank accounting of where virtual time went.
struct RankStats {
  double compute_s = 0.0;   ///< time inside compute()
  double comm_s = 0.0;      ///< time blocked in send/recv (collectives incl.)
  std::uint64_t messages_sent = 0;
  double bytes_sent = 0.0;
  des::SimTime finish = 0.0;  ///< when this rank's program returned
};

/// Result of one SPMD run.
struct RunResult {
  des::SimTime elapsed = 0.0;  ///< max over ranks of finish time
  std::vector<RankStats> ranks;
  net::NetworkStats network;

  /// Communication overhead in the sense of the paper's T = T_c + T_o
  /// decomposition, taken on the critical path: elapsed minus the largest
  /// per-rank compute time.
  double overhead_s() const;

  /// Aggregate compute seconds across ranks.
  double total_compute_s() const;
};

/// Short-message broadcast algorithm.
enum class BcastAlgorithm {
  kFlatTree,  ///< root sends to each rank in turn — Θ(p), the behaviour the
              ///< paper measured on Sunwulf (T_bcast ≈ const·p)
  kBinomialTree,  ///< Θ(log p) rounds — what modern MPIs do
};

/// Long-message broadcast algorithm (at/above the size threshold).
enum class LargeBcastAlgorithm {
  kScatterRing,      ///< van de Geijn scatter + ring allgather — Θ(p) rounds
  kScatterDoubling,  ///< binomial scatter + Bruck allgather — Θ(log p) rounds
};

/// Barrier algorithm.
enum class BarrierAlgorithm {
  kFlatTree,       ///< all-to-root tokens, then a root release — Θ(p)
  kCombiningTree,  ///< binomial combine to rank 0, binomial release — Θ(log p)
  kDissemination,  ///< ceil(log2 p) rounds of shifted pairwise tokens
};

/// Gather/scatter algorithm (the two are mirror images).
enum class GatherAlgorithm {
  kFlatTree,      ///< every rank exchanges directly with the root — Θ(p)
  kBinomialTree,  ///< subtree bundles up/down a binomial tree — Θ(log p)
};

/// Rooted-reduction algorithm.
enum class ReduceAlgorithm {
  kFlatGather,     ///< gather p scalars to the root, fold there — Θ(p) time
                   ///< and a root-side vector of p payloads
  kCombiningTree,  ///< fold partial results up a binomial tree — Θ(log p),
                   ///< O(1) state per rank
};

/// Allreduce algorithm.
enum class AllreduceAlgorithm {
  kReduceBcast,        ///< reduce to rank 0, then broadcast (two full trips)
  kRecursiveDoubling,  ///< butterfly exchange — Θ(log p), value lands
                       ///< everywhere in one pass
};

/// Tuning knobs of the message-passing runtime itself (not the wire).
///
/// The defaults are the logarithmic tree family — what a modern MPI would
/// run, and what keeps 1k-4k-rank machines affordable. `legacy_flat()` is
/// the paper-era flat family that every golden scenario pins so its
/// artifacts stay byte-identical to the original Sunwulf-calibrated runs.
struct CollectiveTuning {
  BcastAlgorithm small_bcast = BcastAlgorithm::kBinomialTree;
  LargeBcastAlgorithm large_bcast = LargeBcastAlgorithm::kScatterDoubling;
  /// Broadcasts of at least this many bytes switch to the scatter+allgather
  /// long-message path regardless of `small_bcast`. 12288 bytes is MPICH's
  /// historical long-message broadcast threshold.
  double large_bcast_threshold_bytes = 12288.0;
  BarrierAlgorithm barrier = BarrierAlgorithm::kCombiningTree;
  GatherAlgorithm gather = GatherAlgorithm::kBinomialTree;
  GatherAlgorithm scatter = GatherAlgorithm::kBinomialTree;
  ReduceAlgorithm reduce = ReduceAlgorithm::kCombiningTree;
  AllreduceAlgorithm allreduce = AllreduceAlgorithm::kRecursiveDoubling;

  friend bool operator==(const CollectiveTuning&,
                         const CollectiveTuning&) = default;

  /// The paper's measured behaviour: every collective flat/linear.
  static constexpr CollectiveTuning legacy_flat() {
    return {BcastAlgorithm::kFlatTree,
            LargeBcastAlgorithm::kScatterRing,
            12288.0,
            BarrierAlgorithm::kFlatTree,
            GatherAlgorithm::kFlatTree,
            GatherAlgorithm::kFlatTree,
            ReduceAlgorithm::kFlatGather,
            AllreduceAlgorithm::kReduceBcast};
  }

  /// The logarithmic family (the defaults), spelled out for call sites that
  /// want to be explicit.
  static constexpr CollectiveTuning tree() { return {}; }
};

class Machine {
 public:
  /// Takes ownership of the network model. A Machine is pinned in memory
  /// once built (Comms and Mailboxes hold pointers back into it), so the
  /// factories below return through guaranteed copy elision only — which is
  /// why the collective tuning rides the constructor instead of a setter
  /// call on a named temporary.
  Machine(machine::Cluster cluster, std::unique_ptr<net::Network> network,
          const CollectiveTuning& tuning = {});

  /// Convenience: the paper's testbed shape (shared 100 Mb Ethernet).
  static Machine shared_bus(machine::Cluster cluster,
                            net::NetworkParams params = {},
                            const CollectiveTuning& tuning = {});

  /// Convenience: full-bisection switch (ablation).
  static Machine switched(machine::Cluster cluster,
                          net::NetworkParams params = {},
                          const CollectiveTuning& tuning = {});

  int world_size() const { return static_cast<int>(processors_.size()); }
  const machine::Cluster& cluster() const { return cluster_; }
  const machine::Processor& processor(int rank) const;
  net::Network& network() { return *network_; }
  des::Scheduler& scheduler() { return scheduler_; }

  /// Host events processed by the finished run: the sequential scheduler's
  /// count, plus every partition scheduler's when the run was partitioned.
  std::uint64_t events_processed() const;

  Mailbox& mailbox(int rank);
  RankStats& rank_stats(int rank);

  /// OS threads this machine's simulation may use (--sim-threads). New
  /// machines inherit global_sim_threads(); 1 runs the classic sequential
  /// scheduler. With more, run() partitions the ranks across threads and
  /// advances each partition in conservative windows bounded by the
  /// network's lookahead — results are bit-identical to sequential runs.
  /// Runs that are not eligible (zero-lookahead network, tracing/profiling/
  /// fault hooks attached, or several ranks sharing a node) silently fall
  /// back to the sequential path.
  int sim_threads() const { return sim_threads_; }
  void set_sim_threads(int threads);

  /// True while run() is inside the partitioned path (Comm consults this to
  /// reject wildcard receives, whose matching order would depend on how
  /// cross-partition deliveries batch).
  bool partitioned() const { return partitioned_; }

  /// Conservative windows the finished run executed: 0 for a sequential
  /// run. Host-side telemetry, so it stays out of RunResult.
  std::uint64_t conservative_windows() const { return conservative_windows_; }

  /// The scheduler driving `rank`: the shared one, or the rank's partition
  /// scheduler inside a partitioned run.
  des::Scheduler& scheduler_for(int rank);

  /// Deliver a message from `src` into `dst`'s mailbox. Sequential runs
  /// post directly. A partitioned run posts same-partition messages
  /// directly too, but parks cross-partition ones in an outbox; they are
  /// drained into the destination at the next window boundary in a
  /// canonical (post-time, source, sequence) order, so delivery order —
  /// and hence every golden artifact — is independent of the thread count.
  void post_message(int src, int dst, Message message);

  const CollectiveTuning& tuning() const { return tuning_; }
  void set_tuning(const CollectiveTuning& tuning) { tuning_ = tuning; }

  /// Turn on execution tracing (before run()); the recorder lives as long
  /// as the machine. Null when tracing is off.
  TraceRecorder& enable_tracing();
  TraceRecorder* tracer() { return tracer_.get(); }

  /// The ambient profiler this machine publishes to, picked up from
  /// obs::current() at construction (null when profiling is off). A
  /// profiled machine traces automatically and appends one obs::RunProfile
  /// when run() completes.
  obs::Profiler* profiler() { return profiler_; }

  /// Attach fault hooks (before run()). Non-owning: the caller keeps the
  /// hooks alive for the run and reads their accounting afterwards. Null
  /// (the default) runs the machine healthy, hook-free.
  void attach_fault_hooks(FaultHooks* hooks);
  FaultHooks* fault_hooks() { return fault_hooks_; }

  /// An SPMD program: called once per rank to create that rank's coroutine.
  using Program = std::function<des::Task<void>(Comm&)>;

  /// Launch `program` on every rank and run the simulation to completion.
  /// A Machine is single-shot: construct a fresh one per run.
  RunResult run(const Program& program);

 private:
  /// One cross-partition message with its canonical delivery key.
  struct Handoff {
    des::SimTime post_time = 0.0;  ///< sender's virtual time at post
    int src = 0;
    int dst = 0;
    std::uint64_t seq = 0;  ///< per-source post counter (total order per src)
    Message message;
  };

  bool partition_eligible() const;
  RunResult run_partitioned(const Program& program, int partitions);
  void deliver_inboxes(int partition);
  [[noreturn]] void rethrow_with_deadlock_diagnosis(
      const des::DeadlockError& deadlock) const;

  machine::Cluster cluster_;
  std::unique_ptr<net::Network> network_;
  des::Scheduler scheduler_;
  std::vector<machine::Processor> processors_;
  std::vector<Mailbox> mailboxes_;
  std::vector<RankStats> stats_;
  std::vector<Comm> comms_;
  CollectiveTuning tuning_;
  std::unique_ptr<TraceRecorder> tracer_;
  FaultHooks* fault_hooks_ = nullptr;
  obs::Profiler* profiler_ = nullptr;
  des::QueueTelemetry queue_telemetry_;  ///< bound only when profiled
  bool ran_ = false;

  int sim_threads_ = 1;
  bool partitioned_ = false;
  std::vector<int> partition_of_;  ///< rank -> partition (contiguous blocks)
  std::vector<std::unique_ptr<des::Scheduler>> partition_schedulers_;
  std::vector<des::Scheduler*> rank_scheduler_;  ///< rank -> its scheduler
  /// One partition's handoff state, written on its own thread during its
  /// windows and padded to whole cache lines so partitions never share one.
  struct alignas(64) PartitionState {
    /// The outbox buffer this partition's current window writes; flips at
    /// every delivery (double-buffering by round parity).
    int parity = 0;
    /// Earliest arrival among the handoffs posted since the last bound.
    des::SimTime emitted_bound = std::numeric_limits<des::SimTime>::infinity();
    /// outboxes[parity][dst_partition]: messages parked until the next
    /// window boundary. Only this partition appends; the destination drains
    /// a buffer in the round after it was written, while this partition
    /// writes the other one.
    std::array<std::vector<std::vector<Handoff>>, 2> outboxes;
    std::vector<Handoff> inbox_scratch;  ///< this partition's sort buffer
  };
  static_assert(sizeof(PartitionState) % 64 == 0,
                "partition handoff state needs whole cache lines");
  std::vector<PartitionState> partition_state_;
  std::vector<std::uint64_t> handoff_seq_;  ///< per-source post counter
  std::uint64_t conservative_windows_ = 0;
};

}  // namespace hetscale::vmpi
