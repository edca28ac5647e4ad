// Messages and per-rank mailboxes.
//
// A Message carries both a *modeled* size in bytes (what the network model
// times) and a *real* payload (what the algorithm computes with) — virtual
// time and real data are deliberately decoupled (DESIGN.md §6.1). Payloads
// are pooled (payload.hpp), and the pending queue is a vector drained by
// index rather than a deque; each (source, tag) key's FIFO is a chain of
// slot numbers through that vector, found through one flat hash table. So
// steady-state delivery performs no heap traffic at all.
#pragma once

#include <coroutine>
#include <cstdint>
#include <optional>
#include <vector>

#include "hetscale/des/scheduler.hpp"
#include "hetscale/vmpi/payload.hpp"

namespace hetscale::vmpi {

/// Wildcards for Comm::recv.
inline constexpr int kAnySource = -1;
inline constexpr int kAnyTag = -1;

struct Message {
  int source = 0;
  int tag = 0;
  double bytes = 0.0;           ///< modeled on-the-wire size
  Payload payload;              ///< real data (pooled buffer / scalar / boxed)
  des::SimTime arrival = 0.0;   ///< when the message is fully available

  /// Convenience accessor mirroring the old std::any convention (throws
  /// std::bad_any_cast on a type mismatch, which in practice means
  /// mismatched send/recv code). Buffer payloads are read via
  /// `payload.doubles()` instead.
  template <class T>
  T value() const {
    return payload.as<T>();
  }
};

/// The receive queue of one rank. Exactly one coroutine (the rank itself)
/// ever receives from a mailbox, so at most one waiter is registered.
class Mailbox {
 public:
  explicit Mailbox(des::Scheduler& scheduler) : scheduler_(&scheduler) {}

  /// Point wakes at a different scheduler. The partitioned Machine rebinds
  /// each mailbox to its owning rank's partition scheduler before the run;
  /// must not be called while a receiver is suspended on this mailbox.
  void rebind(des::Scheduler& scheduler) { scheduler_ = &scheduler; }

  /// Deposit a message (called from the sender's coroutine). If the rank is
  /// blocked in recv, its resumption is scheduled at the message's arrival.
  void post(Message message);

  /// Remove and return the first pending message matching (source, tag),
  /// honouring wildcards; messages are matched in post order (MPI's
  /// non-overtaking rule). Arrival times are NOT consulted here — the caller
  /// waits out a future arrival itself. Wildcard-free matches (every
  /// collective and algorithm in the tree) go straight to their key's FIFO
  /// through a flat open-addressing index — one hash and, at load <= 1/2,
  /// about one probe into one contiguous table, regardless of how many
  /// unrelated messages are pending.
  std::optional<Message> take_match(int source, int tag);

  /// Awaitable: suspend until the next post. Only one waiter may exist.
  /// The (source, tag) the receiver is matching is remembered while it is
  /// suspended, so a deadlocked run can name what every blocked rank was
  /// waiting for (Machine::run's diagnosis).
  auto wait_for_post(int source = kAnySource, int tag = kAnyTag) {
    return WaitAwaiter{*this, source, tag};
  }

  std::size_t pending_count() const { return live_count_; }

  /// The (source, tag) of a receiver currently suspended on this mailbox.
  struct WaitingRecv {
    int source = kAnySource;
    int tag = kAnyTag;
  };
  std::optional<WaitingRecv> waiting_recv() const { return waiting_; }

 private:
  struct WaitAwaiter {
    Mailbox& box;
    int source;
    int tag;
    bool await_ready() const noexcept { return false; }
    void await_suspend(std::coroutine_handle<> handle);
    void await_resume() const noexcept { box.waiting_.reset(); }
  };

  /// Sentinel for a slot whose message was taken: slots tombstone in place
  /// (the key chains hold positions into pending_, so mid-erase would shift
  /// them) and the whole slab resets when it fully drains — the
  /// overwhelmingly common case between collective phases.
  static constexpr int kConsumedSource = -2;

  /// End of a key chain (and "no slot" in an empty chain's head).
  static constexpr std::uint32_t kNoSlot = 0xffffffffu;

  /// One (source, tag) key of the open-addressing index: the first and
  /// last slot of the key's FIFO, which is threaded through the slab by
  /// next_. An entry whose epoch is not the current drain_epoch_ is empty,
  /// so a full drain clears the whole table by bumping the epoch. Entries
  /// are never deleted between drains, which keeps linear probing valid.
  struct KeyEntry {
    std::uint64_t key = 0;
    std::uint64_t epoch = 0;  ///< 0 never matches: drain_epoch_ starts at 1
    std::uint32_t head = kNoSlot;
    std::uint32_t tail = kNoSlot;
  };

  static std::uint64_t index_key(int source, int tag) {
    return (static_cast<std::uint64_t>(static_cast<std::uint32_t>(source))
            << 32) |
           static_cast<std::uint32_t>(tag);
  }

  /// Home bucket of `key`: the top log2(table size) bits of its Fibonacci
  /// hash. Only called on a non-empty table.
  std::size_t bucket(std::uint64_t key) const {
    return static_cast<std::size_t>((key * 0x9E3779B97F4A7C15ull) >>
                                    table_shift_);
  }

  KeyEntry* find_key(std::uint64_t key);
  KeyEntry& find_or_insert_key(std::uint64_t key);
  KeyEntry& empty_entry_for(std::uint64_t key);
  void grow_table();
  std::optional<Message> consume(std::size_t slot);
  void reset_slab();

  des::Scheduler* scheduler_;
  /// Pending messages live in [head_, pending_.size()); popping the front
  /// advances head_ past tombstones, and the vector (its capacity is the
  /// slab) resets to index 0 whenever it fully drains.
  std::vector<Message> pending_;
  std::size_t head_ = 0;
  std::size_t live_count_ = 0;
  /// next_[slot]: the next slot of the same (source, tag), or kNoSlot.
  std::vector<std::uint32_t> next_;
  /// The index: a power-of-two table probed linearly from a Fibonacci hash
  /// of the key, kept at most half full. Empty until the first post.
  std::vector<KeyEntry> table_;
  unsigned table_shift_ = 63;  ///< 64 - log2(table_.size())
  std::size_t keys_ = 0;       ///< live entries in the current epoch
  std::uint64_t drain_epoch_ = 1;
  std::coroutine_handle<> waiter_;
  std::optional<WaitingRecv> waiting_;
};

}  // namespace hetscale::vmpi
