#include "hetscale/vmpi/machine.hpp"

#include <algorithm>
#include <exception>
#include <limits>
#include <sstream>
#include <string>
#include <unordered_set>
#include <utility>

#include "hetscale/des/frame_pool.hpp"
#include "hetscale/des/parallel.hpp"
#include "hetscale/net/shared_bus.hpp"
#include "hetscale/net/switched.hpp"
#include "hetscale/obs/budget.hpp"
#include "hetscale/obs/critical_path.hpp"
#include "hetscale/support/args.hpp"
#include "hetscale/support/error.hpp"

namespace hetscale::vmpi {

double RunResult::overhead_s() const {
  double max_compute = 0.0;
  for (const auto& r : ranks) max_compute = std::max(max_compute, r.compute_s);
  return std::max(0.0, elapsed - max_compute);
}

double RunResult::total_compute_s() const {
  double total = 0.0;
  for (const auto& r : ranks) total += r.compute_s;
  return total;
}

Machine::Machine(machine::Cluster cluster,
                 std::unique_ptr<net::Network> network,
                 const CollectiveTuning& tuning)
    : cluster_(std::move(cluster)),
      network_(std::move(network)),
      tuning_(tuning) {
  HETSCALE_REQUIRE(network_ != nullptr, "network must not be null");
  processors_ = cluster_.processors();
  HETSCALE_REQUIRE(!processors_.empty(),
                   "cluster has no participating processors");
  mailboxes_.reserve(processors_.size());
  comms_.reserve(processors_.size());
  stats_.resize(processors_.size());
  const int size = static_cast<int>(processors_.size());
  for (int r = 0; r < size; ++r) {
    mailboxes_.emplace_back(scheduler_);
    comms_.emplace_back(*this, r, size);
    comms_.back().bind_scheduler(&scheduler_);
  }
  sim_threads_ = global_sim_threads();
  // Profiling is ambient: a machine built inside a ProfilerScope traces
  // itself and publishes a RunProfile when run() completes, so every
  // scenario is profileable without plumbing.
  profiler_ = obs::current();
  if (profiler_ != nullptr) {
    enable_tracing().spans().bind_clock(
        [scheduler = &scheduler_] { return scheduler->now(); });
    scheduler_.bind_telemetry(&queue_telemetry_);
  }
}

Machine Machine::shared_bus(machine::Cluster cluster,
                            net::NetworkParams params,
                            const CollectiveTuning& tuning) {
  return Machine(std::move(cluster),
                 std::make_unique<net::SharedBusNetwork>(params), tuning);
}

Machine Machine::switched(machine::Cluster cluster, net::NetworkParams params,
                          const CollectiveTuning& tuning) {
  return Machine(std::move(cluster),
                 std::make_unique<net::SwitchedNetwork>(params), tuning);
}

const machine::Processor& Machine::processor(int rank) const {
  HETSCALE_REQUIRE(rank >= 0 && rank < world_size(), "rank out of range");
  return processors_[static_cast<std::size_t>(rank)];
}

Mailbox& Machine::mailbox(int rank) {
  HETSCALE_REQUIRE(rank >= 0 && rank < world_size(), "rank out of range");
  return mailboxes_[static_cast<std::size_t>(rank)];
}

RankStats& Machine::rank_stats(int rank) {
  HETSCALE_REQUIRE(rank >= 0 && rank < world_size(), "rank out of range");
  return stats_[static_cast<std::size_t>(rank)];
}

void Machine::set_sim_threads(int threads) {
  HETSCALE_REQUIRE(!ran_, "set sim-threads before running the machine");
  HETSCALE_REQUIRE(threads >= 1, "sim-threads must be >= 1");
  sim_threads_ = threads;
}

std::uint64_t Machine::events_processed() const {
  std::uint64_t events = scheduler_.events_processed();
  for (const auto& scheduler : partition_schedulers_) {
    events += scheduler->events_processed();
  }
  return events;
}

des::Scheduler& Machine::scheduler_for(int rank) {
  HETSCALE_REQUIRE(rank >= 0 && rank < world_size(), "rank out of range");
  if (!partitioned_) return scheduler_;
  return *rank_scheduler_[static_cast<std::size_t>(rank)];
}

void Machine::post_message(int src, int dst, Message message) {
  if (!partitioned_) {
    mailbox(dst).post(std::move(message));
    return;
  }
  const int src_part = partition_of_[static_cast<std::size_t>(src)];
  const int dst_part = partition_of_[static_cast<std::size_t>(dst)];
  if (src_part == dst_part) {
    mailboxes_[static_cast<std::size_t>(dst)].post(std::move(message));
    return;
  }
  // The payload is about to cross threads: make every block it references
  // uniquely owned first, so its non-atomic refcounts never straddle a
  // partition boundary.
  message.payload.detach_for_transfer();
  PartitionState& state = partition_state_[static_cast<std::size_t>(src_part)];
  state.emitted_bound = std::min(state.emitted_bound, message.arrival);
  auto& outbox = state.outboxes[static_cast<std::size_t>(state.parity)]
                               [static_cast<std::size_t>(dst_part)];
  outbox.push_back(Handoff{
      rank_scheduler_[static_cast<std::size_t>(src)]->now(), src, dst,
      handoff_seq_[static_cast<std::size_t>(src)]++, std::move(message)});
}

bool Machine::partition_eligible() const {
  // A zero-lookahead network (the shared bus) serializes every sender
  // globally: no window can safely advance past the next global event.
  if (network_->lookahead_s() <= 0.0) return false;
  // Tracing, profiling, and fault hooks all funnel per-event records into
  // shared sinks; keep those runs on the sequential path rather than
  // locking the hot paths.
  if (tracer_ != nullptr || profiler_ != nullptr || fault_hooks_ != nullptr) {
    return false;
  }
  // The per-node network state (injection ports, intra-node fast path) is
  // only partition-exclusive when no two ranks share a node.
  std::unordered_set<int> nodes;
  nodes.reserve(processors_.size());
  for (const machine::Processor& proc : processors_) {
    if (!nodes.insert(proc.node).second) return false;
  }
  return true;
}

void Machine::deliver_inboxes(int partition) {
  PartitionState& self = partition_state_[static_cast<std::size_t>(partition)];
  // The sources wrote the buffer of the old parity during the window that
  // just ended; this partition's next window writes the other one.
  const auto drained = static_cast<std::size_t>(self.parity);
  self.parity ^= 1;
  auto& scratch = self.inbox_scratch;
  scratch.clear();
  for (PartitionState& source : partition_state_) {
    auto& inbox = source.outboxes[drained][static_cast<std::size_t>(partition)];
    for (Handoff& handoff : inbox) scratch.push_back(std::move(handoff));
    inbox.clear();
  }
  // Canonical order: post time, then source rank, then per-source sequence.
  // This is a total order on the handoffs (the per-source counter breaks
  // every remaining tie), so the mailbox post order — and with it every
  // downstream artifact — is independent of the partition count.
  std::sort(scratch.begin(), scratch.end(),
            [](const Handoff& a, const Handoff& b) {
              if (a.post_time != b.post_time) return a.post_time < b.post_time;
              if (a.src != b.src) return a.src < b.src;
              return a.seq < b.seq;
            });
  for (Handoff& handoff : scratch) {
    mailboxes_[static_cast<std::size_t>(handoff.dst)].post(
        std::move(handoff.message));
  }
}

namespace {
des::Task<void> rank_main(Machine& machine, Comm& comm,
                          const Machine::Program& program) {
  co_await program(comm);
  machine.rank_stats(comm.rank()).finish = comm.now();
}
}  // namespace

TraceRecorder& Machine::enable_tracing() {
  HETSCALE_REQUIRE(!ran_, "enable tracing before running the machine");
  if (!tracer_) tracer_ = std::make_unique<TraceRecorder>();
  if (fault_hooks_ != nullptr) fault_hooks_->bind_span_sink(&tracer_->spans());
  return *tracer_;
}

void Machine::attach_fault_hooks(FaultHooks* hooks) {
  HETSCALE_REQUIRE(!ran_, "attach fault hooks before running the machine");
  fault_hooks_ = hooks;
  if (tracer_ && hooks != nullptr) hooks->bind_span_sink(&tracer_->spans());
}

namespace {
std::string describe_rank_wait(int rank, const Mailbox& box) {
  std::ostringstream out;
  const auto waiting = box.waiting_recv();
  out << "  rank " << rank << " blocked in recv(source=";
  if (waiting->source == kAnySource) {
    out << "ANY";
  } else {
    out << waiting->source;
  }
  out << ", tag=";
  if (waiting->tag == kAnyTag) {
    out << "ANY";
  } else {
    out << waiting->tag;
  }
  out << "); " << box.pending_count() << " pending unmatched message"
      << (box.pending_count() == 1 ? "" : "s");
  return out.str();
}
}  // namespace

void Machine::rethrow_with_deadlock_diagnosis(
    const des::DeadlockError& deadlock) const {
  // Quiescence with pending receivers: name what every blocked rank was
  // waiting for and what sat unmatched in its mailbox — the usual causes
  // are a tag mismatch or a rank that exited early (mailbox exhaustion).
  std::ostringstream out;
  out << deadlock.what() << "\n";
  for (int r = 0; r < world_size(); ++r) {
    const Mailbox& box = mailboxes_[static_cast<std::size_t>(r)];
    if (!box.waiting_recv()) continue;
    out << describe_rank_wait(r, box) << "\n";
  }
  out << "check that every posted tag has a matching receive and that no "
         "rank returned while peers still expected its messages";
  throw des::DeadlockError(out.str());
}

RunResult Machine::run(const Program& program) {
  HETSCALE_REQUIRE(!ran_, "a Machine is single-shot; construct a fresh one");
  const int partitions = std::min(sim_threads_, world_size());
  if (partitions > 1 && partition_eligible()) {
    return run_partitioned(program, partitions);
  }
  ran_ = true;
  // Start the coroutine-frame high-water mark at this run's baseline; the
  // whole simulation runs on this thread, so the peak read after the run is
  // this machine's own.
  des::detail::frame_pool_reset_live_peak();
  for (int r = 0; r < world_size(); ++r) {
    scheduler_.spawn(rank_main(*this, comms_[static_cast<std::size_t>(r)],
                               program));
  }
  try {
    scheduler_.run();
  } catch (const des::DeadlockError& deadlock) {
    rethrow_with_deadlock_diagnosis(deadlock);
  }

  RunResult result;
  result.ranks = stats_;
  result.network = network_->stats();
  for (const auto& r : stats_) result.elapsed = std::max(result.elapsed, r.finish);

  if (profiler_ != nullptr) {
    obs::RunProfile profile;
    profile.elapsed_s = result.elapsed;
    profile.budget =
        obs::compute_time_budget(tracer_->spans(), result.elapsed);
    for (const auto& r : stats_) {
      profile.compute_s += r.compute_s;
      profile.comm_s += r.comm_s;
    }
    // Traffic (messages, nominal bytes) comes from the outermost model;
    // link occupancy comes from the wire model, where degraded (inflated)
    // frames actually held the medium.
    profile.messages = result.network.messages;
    profile.bytes = result.network.bytes;
    const net::NetworkStats& wire = network_->wire_model().stats();
    profile.wire_s = wire.wire_seconds;
    profile.contention_s = wire.contention_seconds;
    for (std::size_t node = 0; node < wire.links.size(); ++node) {
      const net::LinkStats& link = wire.links[node];
      if (link.frames == 0) continue;
      profile.links.push_back(obs::LinkProfile{static_cast<int>(node),
                                               link.bytes, link.wire_s,
                                               link.stall_s});
    }
    profile.des_events = scheduler_.events_processed();
    profile.des_queue_depth_max = scheduler_.max_queue_depth();
    profile.frame_live_peak = des::detail::frame_pool_live_peak();
    profile.comm_cells = tracer_->comm().cells();
    const obs::CriticalPath path = obs::critical_path(
        tracer_->spans(), tracer_->path_messages(), result.elapsed);
    profile.critical_path = obs::CriticalPathSummary{
        path.compute_s, path.comm_s, path.wait_s, path.fault_s};
    profile.des_queue.pushes = queue_telemetry_.pushes;
    profile.des_queue.pops = queue_telemetry_.pops;
    profile.des_queue.far_inserts = queue_telemetry_.far_inserts;
    profile.des_queue.rebuilds = queue_telemetry_.rebuilds;
    profile.des_queue.samples_dropped = queue_telemetry_.samples_dropped;
    profile.des_queue.occupancy.reserve(queue_telemetry_.occupancy.size());
    for (const des::QueueTelemetry::Sample& s : queue_telemetry_.occupancy) {
      profile.des_queue.occupancy.push_back(
          obs::DesQueueStats::Sample{s.time, s.depth});
    }
    if (fault_hooks_ != nullptr) {
      const FaultProfile faults = fault_hooks_->fault_profile();
      profile.retries = faults.retries;
      profile.backoff_s = faults.retry_s;
      profile.fault = obs::FaultProfileTotals{
          faults.slowdown_s, faults.checkpoint_s, faults.rework_s,
          faults.retry_s,    faults.checkpoints,  faults.crashes,
          faults.retries};
    }
    profiler_->add_run(std::move(profile));
  }
  return result;
}

RunResult Machine::run_partitioned(const Program& program, int partitions) {
  ran_ = true;
  const int world = world_size();
  partition_of_.resize(static_cast<std::size_t>(world));
  rank_scheduler_.assign(static_cast<std::size_t>(world), nullptr);
  partition_schedulers_.clear();
  partition_schedulers_.reserve(static_cast<std::size_t>(partitions));
  for (int p = 0; p < partitions; ++p) {
    partition_schedulers_.push_back(std::make_unique<des::Scheduler>());
  }
  for (int r = 0; r < world; ++r) {
    // Contiguous blocks, balanced to within one rank. Contiguity keeps the
    // tree collectives' heaviest edges (rank r <-> r +/- small powers of
    // two) mostly inside one partition.
    const int p = static_cast<int>(
        (static_cast<long long>(r) * partitions) / world);
    partition_of_[static_cast<std::size_t>(r)] = p;
    rank_scheduler_[static_cast<std::size_t>(r)] =
        partition_schedulers_[static_cast<std::size_t>(p)].get();
  }
  for (int r = 0; r < world; ++r) {
    mailboxes_[static_cast<std::size_t>(r)].rebind(
        *rank_scheduler_[static_cast<std::size_t>(r)]);
    comms_[static_cast<std::size_t>(r)].bind_scheduler(
        rank_scheduler_[static_cast<std::size_t>(r)]);
  }
  partition_state_ = std::vector<PartitionState>(
      static_cast<std::size_t>(partitions));
  for (PartitionState& state : partition_state_) {
    for (auto& outbox : state.outboxes) {
      outbox.resize(static_cast<std::size_t>(partitions));
    }
  }
  handoff_seq_.assign(static_cast<std::size_t>(world), 0);
  int max_node = 0;
  for (const machine::Processor& proc : processors_) {
    max_node = std::max(max_node, proc.node);
  }
  network_->begin_partitioned(partitions, max_node + 1);
  partitioned_ = true;

  des::PartitionHooks hooks;
  hooks.bootstrap = [&](int p) {
    // Bind this thread's network-stats shard, then spawn the partition's
    // ranks HERE so their coroutine frames come from (and return to) this
    // thread's frame pool.
    net::Network::set_thread_partition(p);
    for (int r = 0; r < world; ++r) {
      if (partition_of_[static_cast<std::size_t>(r)] != p) continue;
      rank_scheduler_[static_cast<std::size_t>(r)]->spawn(
          rank_main(*this, comms_[static_cast<std::size_t>(r)], program));
    }
  };
  hooks.handoff_bound = [&](int p) {
    return std::exchange(
        partition_state_[static_cast<std::size_t>(p)].emitted_bound,
        std::numeric_limits<des::SimTime>::infinity());
  };
  hooks.deliver = [&](int p) { deliver_inboxes(p); };

  std::vector<des::Scheduler*> schedulers;
  schedulers.reserve(partition_schedulers_.size());
  for (const auto& scheduler : partition_schedulers_) {
    schedulers.push_back(scheduler.get());
  }
  const des::ConservativeRun run =
      des::run_conservative(schedulers, network_->lookahead_s(), hooks);
  conservative_windows_ = run.windows;
  partitioned_ = false;
  network_->end_partitioned();

  // Surface errors the way the sequential path would: a real exception from
  // a rank program wins (lowest partition first — partitions are rank-
  // ordered, so this matches sequential root order); otherwise any
  // partition-local deadlock gets the machine-wide diagnosis.
  std::exception_ptr first_error;
  bool deadlocked = false;
  std::string deadlock_what;
  for (const std::exception_ptr& error : run.errors) {
    if (!error) continue;
    try {
      std::rethrow_exception(error);
    } catch (const des::DeadlockError& deadlock) {
      if (!deadlocked) {
        deadlocked = true;
        deadlock_what = deadlock.what();
      }
    } catch (...) {
      if (!first_error) first_error = error;
    }
  }
  if (first_error) std::rethrow_exception(first_error);
  if (deadlocked) {
    rethrow_with_deadlock_diagnosis(des::DeadlockError(deadlock_what));
  }

  RunResult result;
  result.ranks = stats_;
  result.network = network_->stats();
  for (const auto& r : stats_) {
    result.elapsed = std::max(result.elapsed, r.finish);
  }
  return result;
}

}  // namespace hetscale::vmpi
