// CommMatrix — per-rank x per-rank communication totals, split by
// collective phase.
//
// The virtual-MPI runtime records one entry per (src, dst, phase) cell:
// message count, nominal on-wire bytes, and the receiver-side wait time
// accumulated while blocked for a message from `src`. Phases name the
// collective a message belonged to (p2p, bcast, barrier, the van de Geijn
// scatter/ring legs, group collectives, ...) so a hotspot can be tied to
// the algorithm step that produced it, not just the rank pair.
//
// Determinism: every record adds into its cell at once, in recording
// order, and cells() returns the cells in one canonical (src, dst, phase)
// order regardless of the recording interleaving; all values are
// virtual-time or counts. Recording is on the traced hot path (every send
// and every receive), so the cells sit in a dense vector found through an
// open-addressing index, and only cells() orders them. The matrix has no
// locks — each vmpi::Machine owns one and records from its single
// simulation thread.
#pragma once

#include <compare>
#include <cstdint>
#include <string>
#include <vector>

namespace hetscale::obs {

/// The collective phase a message belongs to. kP2p covers algorithm-level
/// point-to-point traffic; the rest name the vmpi collective (or Group
/// collective) whose implementation produced the message.
enum class CommPhase : int {
  kP2p = 0,
  kBcast,
  kBcastScatter,  ///< van de Geijn long-broadcast scatter leg
  kBcastRing,     ///< van de Geijn long-broadcast ring leg
  kBarrier,
  kGather,
  kScatter,
  kAllgather,
  kAlltoall,
  kGroupBcast,   ///< vmpi::Group row/column panel broadcast
  kGroupGather,  ///< vmpi::Group panel gather
  // Appended past the seed phases so recorded phase ints stay stable.
  kReduce,         ///< combining-tree reduce partials
  kAllreduce,      ///< recursive-doubling allreduce exchanges
  kBcastDoubling,  ///< long-broadcast doubling-allgather leg
};

/// Stable lowercase name of a phase ("p2p", "bcast", ...).
const std::string& comm_phase_name(CommPhase phase);

/// One (src, dst, phase) cell of the matrix. `phase` is the CommPhase as
/// int so the defaulted ordering (what deterministic folds sort by) stays
/// trivially total.
struct CommCell {
  int src = 0;
  int dst = 0;
  int phase = 0;
  std::uint64_t messages = 0;
  double bytes = 0.0;
  double wait_s = 0.0;

  auto operator<=>(const CommCell&) const = default;
};

class CommMatrix {
 public:
  /// Record one message sent src -> dst in `phase` (sender side).
  void record_send(int src, int dst, CommPhase phase, double bytes);

  /// Charge `wait_s` seconds of receiver blocking to the src -> dst cell
  /// (receiver side; dst is the waiting rank).
  void record_wait(int src, int dst, CommPhase phase, double wait_s);

  bool empty() const { return cells_.empty(); }
  std::size_t cell_count() const { return cells_.size(); }

  std::uint64_t total_messages() const;
  double total_bytes() const;
  double total_wait_s() const;

  /// All cells in canonical (src, dst, phase) order.
  std::vector<CommCell> cells() const;

  /// Merge another matrix cell-wise (used when folding runs).
  CommMatrix& operator+=(const CommMatrix& other);

 private:
  CommCell& cell(int src, int dst, int phase);
  void grow_index();

  std::vector<CommCell> cells_;  ///< first-recorded order
  /// Open-addressing index into cells_ (linear probing, power-of-two
  /// size, at most half full); kEmpty marks a free slot.
  std::vector<std::uint32_t> index_;
};

}  // namespace hetscale::obs
