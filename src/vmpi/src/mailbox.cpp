#include "hetscale/vmpi/message.hpp"

#include <algorithm>
#include <bit>
#include <utility>

#include "hetscale/support/error.hpp"

namespace hetscale::vmpi {

namespace {
// The index starts at this many entries and doubles at load 1/2. A drain
// frees a table grown past kTableCap, so a mailbox that once held many keys
// (a flat-gather root, or pipelined GE minting a fresh tag per step) does
// not keep that table for the rest of the run, p mailboxes deep.
constexpr std::size_t kMinTableSize = 8;
constexpr std::size_t kTableCap = 128;
}  // namespace

void Mailbox::post(Message message) {
  const des::SimTime wake_at =
      std::max(scheduler_->now(), message.arrival);
  const int source = message.source;
  const int tag = message.tag;
  const auto slot = static_cast<std::uint32_t>(pending_.size());
  KeyEntry& entry = find_or_insert_key(index_key(source, tag));
  if (entry.head == kNoSlot) {
    entry.head = slot;
  } else {
    next_[entry.tail] = slot;
  }
  entry.tail = slot;
  pending_.push_back(std::move(message));
  next_.push_back(kNoSlot);
  ++live_count_;
  if (waiter_) {
    // Wake the waiting recv only if THIS message matches what it asked for.
    // (A spurious wake would not be a correctness bug — the recv re-checks
    // the queue — but it could complete the recv at the non-matching
    // message's arrival time instead of the matching one's, making timing
    // depend on cross-source post order. Gating keeps recv completion a
    // function of the matching message alone, which is what lets the
    // partitioned scheduler batch cross-partition deliveries.)
    const bool matches =
        (waiting_->source == kAnySource || waiting_->source == source) &&
        (waiting_->tag == kAnyTag || waiting_->tag == tag);
    if (matches) {
      // Waking at the arrival time makes "recv completes at max(call time,
      // arrival)" emerge.
      scheduler_->schedule_at(wake_at, std::exchange(waiter_, nullptr));
    }
  }
}

std::optional<Message> Mailbox::take_match(int source, int tag) {
  if (source != kAnySource && tag != kAnyTag) {
    // Hot path: straight to this (source, tag)'s chain. Slots consumed by a
    // wildcard take in the meantime are skipped lazily.
    KeyEntry* entry = find_key(index_key(source, tag));
    if (entry == nullptr) return std::nullopt;
    std::uint32_t slot = entry->head;
    while (slot != kNoSlot && pending_[slot].source == kConsumedSource) {
      slot = next_[slot];
    }
    if (slot == kNoSlot) {
      entry->head = kNoSlot;
      return std::nullopt;
    }
    // Unlink before consume(): a full drain inside it may free the table.
    entry->head = next_[slot];
    return consume(slot);
  }
  for (std::size_t i = head_; i < pending_.size(); ++i) {
    const Message& candidate = pending_[i];
    if (candidate.source == kConsumedSource) continue;
    const bool source_ok = source == kAnySource || candidate.source == source;
    const bool tag_ok = tag == kAnyTag || candidate.tag == tag;
    if (source_ok && tag_ok) return consume(i);
  }
  return std::nullopt;
}

std::optional<Message> Mailbox::consume(std::size_t slot) {
  Message found = std::move(pending_[slot]);
  pending_[slot].source = kConsumedSource;
  pending_[slot].payload = Payload{};
  --live_count_;
  if (slot == head_) {
    while (head_ < pending_.size() &&
           pending_[head_].source == kConsumedSource) {
      ++head_;
    }
  }
  if (head_ == pending_.size()) reset_slab();
  return found;
}

void Mailbox::reset_slab() {
  pending_.clear();  // keeps capacity — the slab is reused
  next_.clear();
  head_ = 0;
  keys_ = 0;
  ++drain_epoch_;  // every table entry now reads as empty
  if (table_.size() > kTableCap) std::vector<KeyEntry>().swap(table_);
}

Mailbox::KeyEntry* Mailbox::find_key(std::uint64_t key) {
  if (table_.empty()) return nullptr;
  const std::size_t mask = table_.size() - 1;
  for (std::size_t i = bucket(key);; i = (i + 1) & mask) {
    KeyEntry& entry = table_[i];
    if (entry.epoch != drain_epoch_) return nullptr;
    if (entry.key == key) return &entry;
  }
}

Mailbox::KeyEntry& Mailbox::find_or_insert_key(std::uint64_t key) {
  if (KeyEntry* entry = find_key(key)) return *entry;
  if ((keys_ + 1) * 2 > table_.size()) grow_table();
  ++keys_;
  KeyEntry& entry = empty_entry_for(key);
  entry = KeyEntry{key, drain_epoch_, kNoSlot, kNoSlot};
  return entry;
}

Mailbox::KeyEntry& Mailbox::empty_entry_for(std::uint64_t key) {
  const std::size_t mask = table_.size() - 1;
  std::size_t i = bucket(key);
  while (table_[i].epoch == drain_epoch_) i = (i + 1) & mask;
  return table_[i];
}

void Mailbox::grow_table() {
  std::vector<KeyEntry> old = std::move(table_);
  const std::size_t size = old.empty() ? kMinTableSize : 2 * old.size();
  table_.assign(size, KeyEntry{});
  table_shift_ = 64 - static_cast<unsigned>(std::countr_zero(size));
  for (const KeyEntry& entry : old) {
    if (entry.epoch == drain_epoch_) empty_entry_for(entry.key) = entry;
  }
}

void Mailbox::WaitAwaiter::await_suspend(std::coroutine_handle<> handle) {
  HETSCALE_CHECK(box.waiter_ == nullptr,
                 "two concurrent receives on one rank's mailbox");
  box.waiter_ = handle;
  box.waiting_ = WaitingRecv{source, tag};
}

}  // namespace hetscale::vmpi
