#include "hetscale/vmpi/message.hpp"

#include <algorithm>
#include <utility>

#include "hetscale/support/error.hpp"

namespace hetscale::vmpi {

namespace {
// A mailbox whose (source, tag) key set outgrows this after a full drain
// frees the map outright instead of epoch-recycling it: workloads that mint
// a fresh tag per step (pipelined GE) would otherwise grow the index without
// bound, p mailboxes deep.
constexpr std::size_t kIndexKeyCap = 64;
}  // namespace

void Mailbox::post(Message message) {
  const des::SimTime wake_at =
      std::max(scheduler_->now(), message.arrival);
  const int source = message.source;
  const int tag = message.tag;
  const std::uint64_t key = index_key(source, tag);
  if (cached_queue_ == nullptr || cached_key_ != key) {
    cached_queue_ = &index_[key];
    cached_key_ = key;
  }
  SlotQueue& queue = *cached_queue_;
  if (queue.epoch != drain_epoch_) {
    queue.slots.clear();
    queue.head = 0;
    queue.epoch = drain_epoch_;
  }
  queue.slots.push_back(pending_.size());
  pending_.push_back(std::move(message));
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
    // Hot path: straight to this (source, tag)'s FIFO. Slots consumed by a
    // wildcard take in the meantime are skipped lazily.
    const std::uint64_t key = index_key(source, tag);
    if (cached_queue_ == nullptr || cached_key_ != key) {
      const auto it = index_.find(key);
      if (it == index_.end()) return std::nullopt;
      cached_queue_ = &it->second;
      cached_key_ = key;
    }
    SlotQueue& queue = *cached_queue_;
    if (queue.epoch != drain_epoch_) return std::nullopt;
    while (queue.head < queue.slots.size() &&
           pending_[queue.slots[queue.head]].source == kConsumedSource) {
      ++queue.head;
    }
    if (queue.head == queue.slots.size()) {
      queue.slots.clear();
      queue.head = 0;
      return std::nullopt;
    }
    const std::size_t slot = queue.slots[queue.head++];
    if (queue.head == queue.slots.size()) {
      queue.slots.clear();
      queue.head = 0;
    }
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
  head_ = 0;
  ++drain_epoch_;  // lazily empties every slot queue
  if (index_.size() > kIndexKeyCap) {
    index_.clear();
    cached_queue_ = nullptr;
  }
}

void Mailbox::WaitAwaiter::await_suspend(std::coroutine_handle<> handle) {
  HETSCALE_CHECK(box.waiter_ == nullptr,
                 "two concurrent receives on one rank's mailbox");
  box.waiter_ = handle;
  box.waiting_ = WaitingRecv{source, tag};
}

}  // namespace hetscale::vmpi
