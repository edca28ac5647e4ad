// Differential fuzz of vmpi::Mailbox against a linear-scan reference.
//
// The mailbox matches through a hand-linked index (an open-addressing
// table of per-key FIFOs threaded through the pending slab, emptied by an
// epoch bump on every full drain and freed past a size cap). The reference
// is the definition those shortcuts must preserve: a take returns the
// oldest pending message matching (source, tag), wildcards included.
#include <gtest/gtest.h>

#include <cstddef>
#include <cstdint>
#include <optional>
#include <random>
#include <vector>

#include "hetscale/des/scheduler.hpp"
#include "hetscale/vmpi/message.hpp"

namespace hetscale::vmpi {
namespace {

struct Posted {
  int source;
  int tag;
  std::uint64_t id;
};

/// Everything pending, in post order; takes scan for the first match.
class ReferenceMailbox {
 public:
  void post(const Posted& message) { pending_.push_back(message); }

  std::optional<std::uint64_t> take_match(int source, int tag) {
    for (std::size_t i = 0; i < pending_.size(); ++i) {
      const Posted& candidate = pending_[i];
      if ((source == kAnySource || candidate.source == source) &&
          (tag == kAnyTag || candidate.tag == tag)) {
        const std::uint64_t id = candidate.id;
        pending_.erase(pending_.begin() + static_cast<std::ptrdiff_t>(i));
        return id;
      }
    }
    return std::nullopt;
  }

  std::size_t pending_count() const { return pending_.size(); }
  const Posted& oldest() const { return pending_.front(); }

 private:
  std::vector<Posted> pending_;
};

/// Drives one Mailbox and one ReferenceMailbox with the same operations
/// and checks every result against the other.
class Differential {
 public:
  void post(int source, int tag) {
    const Posted message{source, tag, next_id_++};
    reference_.post(message);
    box_.post(Message{source, tag, /*bytes=*/8.0,
                      Payload(static_cast<double>(message.id)),
                      /*arrival=*/0.0});
    ASSERT_EQ(box_.pending_count(), reference_.pending_count());
  }

  /// Returns whether the take matched.
  bool take(int source, int tag) {
    const std::optional<std::uint64_t> want =
        reference_.take_match(source, tag);
    const std::optional<Message> got = box_.take_match(source, tag);
    EXPECT_EQ(got.has_value(), want.has_value())
        << "take(" << source << ", " << tag << ") after " << next_id_
        << " posts";
    if (got && want) {
      EXPECT_EQ(static_cast<std::uint64_t>(got->payload.scalar()), *want)
          << "take(" << source << ", " << tag << ")";
    }
    EXPECT_EQ(box_.pending_count(), reference_.pending_count());
    return want.has_value();
  }

  /// Takes everything pending, leaving both mailboxes empty (a full
  /// drain): mostly exact takes of the oldest message's key, some wildcard.
  void drain(std::mt19937_64& rng) {
    while (reference_.pending_count() > 0) {
      if (rng() % 4 == 0) {
        take(kAnySource, kAnyTag);
      } else {
        const Posted oldest = reference_.oldest();
        take(oldest.source, oldest.tag);
      }
      if (::testing::Test::HasFailure()) return;
    }
    ASSERT_EQ(box_.pending_count(), 0u);
    ++drains_;
  }

  std::size_t pending_count() const { return reference_.pending_count(); }
  std::uint64_t drains() const { return drains_; }

 private:
  des::Scheduler scheduler_;
  Mailbox box_{scheduler_};
  ReferenceMailbox reference_;
  std::uint64_t next_id_ = 0;
  std::uint64_t drains_ = 0;
};

/// One seeded run: phases alternate a small key pool (the chains do the
/// work) with pools of hundreds of keys between drains (the table grows
/// well past its size cap, and the drain frees it).
void fuzz(std::uint64_t seed) {
  std::mt19937_64 rng(seed);
  Differential mailbox;
  for (int phase = 0; phase < 24; ++phase) {
    const bool wide = phase % 3 == 2;
    const int sources = wide ? 40 : 3;
    const int tags = wide ? 12 : 3;
    const int operations = wide ? 1500 : 400;
    for (int op = 0; op < operations; ++op) {
      const int source = static_cast<int>(rng() % sources);
      const int tag = static_cast<int>(rng() % tags);
      const std::uint64_t roll = rng() % 10;
      if (roll < 5) {
        mailbox.post(source, tag);
      } else if (roll < 8) {
        mailbox.take(source, tag);
      } else if (roll == 8) {
        mailbox.take(rng() % 2 ? kAnySource : source,
                     rng() % 2 ? kAnyTag : tag);
      } else if (mailbox.pending_count() < 4) {
        // Near empty: finish the drain so the epoch turns over often.
        mailbox.drain(rng);
      }
      if (::testing::Test::HasFailure()) return;
    }
    mailbox.drain(rng);
    if (::testing::Test::HasFailure()) return;
  }
  EXPECT_GE(mailbox.drains(), 24u);
}

TEST(MailboxFuzz, MatchesLinearScanReference) {
  for (std::uint64_t seed : {1u, 2u, 3u, 4u, 5u}) {
    SCOPED_TRACE(testing::Message() << "seed " << seed);
    fuzz(seed);
    if (HasFailure()) return;
  }
}

TEST(MailboxFuzz, ManyKeysBetweenDrainsGrowAndFreeTheTable) {
  // Deterministic worst case for the table: 2048 distinct keys pending at
  // once (a flat-gather root at p = 2048), taken in reverse key order, then
  // a fresh round on a small key set after the freeing drain.
  std::mt19937_64 rng(7);
  Differential mailbox;
  for (int round = 0; round < 3; ++round) {
    for (int source = 0; source < 2048; ++source) {
      mailbox.post(source, round);
    }
    for (int source = 2047; source >= 0; --source) {
      EXPECT_FALSE(mailbox.take(source, round + 1));
      ASSERT_TRUE(mailbox.take(source, round));
    }
    ASSERT_EQ(mailbox.pending_count(), 0u);
    for (int i = 0; i < 8; ++i) {
      mailbox.post(i % 2, 0);
    }
    mailbox.drain(rng);
  }
}

}  // namespace
}  // namespace hetscale::vmpi
