#include "hetscale/obs/comm_matrix.hpp"

#include <algorithm>
#include <iterator>
#include <limits>

#include "hetscale/support/error.hpp"

namespace hetscale::obs {

namespace {

constexpr std::uint32_t kEmpty = std::numeric_limits<std::uint32_t>::max();

std::size_t cell_hash(int src, int dst, int phase) {
  std::uint64_t key = static_cast<std::uint32_t>(src);
  key = key * 0x9E3779B97F4A7C15ull + static_cast<std::uint32_t>(dst);
  key = key * 0x9E3779B97F4A7C15ull + static_cast<std::uint32_t>(phase);
  return static_cast<std::size_t>(key ^ (key >> 29));
}

}  // namespace

const std::string& comm_phase_name(CommPhase phase) {
  static const std::string kNames[] = {
      "p2p",      "bcast",       "bcast.scatter", "bcast.ring",
      "barrier",  "gather",      "scatter",       "allgather",
      "alltoall", "group.bcast", "group.gather",  "reduce",
      "allreduce", "bcast.doubling",
  };
  const int index = static_cast<int>(phase);
  HETSCALE_REQUIRE(index >= 0 &&
                       index < static_cast<int>(std::size(kNames)),
                   "unknown comm phase");
  return kNames[index];
}

void CommMatrix::grow_index() {
  index_.assign(std::max<std::size_t>(16, index_.size() * 2), kEmpty);
  const std::size_t mask = index_.size() - 1;
  for (std::size_t i = 0; i < cells_.size(); ++i) {
    const CommCell& c = cells_[i];
    std::size_t slot = cell_hash(c.src, c.dst, c.phase) & mask;
    while (index_[slot] != kEmpty) slot = (slot + 1) & mask;
    index_[slot] = static_cast<std::uint32_t>(i);
  }
}

CommCell& CommMatrix::cell(int src, int dst, int phase) {
  if (index_.empty()) grow_index();
  const std::size_t mask = index_.size() - 1;
  std::size_t slot = cell_hash(src, dst, phase) & mask;
  for (;; slot = (slot + 1) & mask) {
    const std::uint32_t at = index_[slot];
    if (at == kEmpty) break;
    CommCell& c = cells_[at];
    if (c.src == src && c.dst == dst && c.phase == phase) return c;
  }
  HETSCALE_CHECK(cells_.size() < kEmpty, "comm matrix is full");
  index_[slot] = static_cast<std::uint32_t>(cells_.size());
  cells_.push_back(CommCell{src, dst, phase, 0, 0.0, 0.0});
  if (cells_.size() * 2 > index_.size()) {
    grow_index();
  }
  return cells_.back();
}

void CommMatrix::record_send(int src, int dst, CommPhase phase,
                             double bytes) {
  HETSCALE_DCHECK(bytes >= 0.0, "message bytes must be non-negative");
  CommCell& c = cell(src, dst, static_cast<int>(phase));
  ++c.messages;
  c.bytes += bytes;
}

void CommMatrix::record_wait(int src, int dst, CommPhase phase,
                             double wait_s) {
  HETSCALE_DCHECK(wait_s >= 0.0, "wait time must be non-negative");
  cell(src, dst, static_cast<int>(phase)).wait_s += wait_s;
}

std::uint64_t CommMatrix::total_messages() const {
  std::uint64_t total = 0;
  for (const CommCell& c : cells_) total += c.messages;
  return total;
}

double CommMatrix::total_bytes() const {
  double total = 0.0;
  for (const CommCell& c : cells()) total += c.bytes;
  return total;
}

double CommMatrix::total_wait_s() const {
  double total = 0.0;
  for (const CommCell& c : cells()) total += c.wait_s;
  return total;
}

std::vector<CommCell> CommMatrix::cells() const {
  std::vector<CommCell> out = cells_;
  // Keys are unique, so ordering whole cells orders them by (src, dst,
  // phase).
  std::sort(out.begin(), out.end());
  return out;
}

CommMatrix& CommMatrix::operator+=(const CommMatrix& other) {
  for (const CommCell& c : other.cells()) {
    CommCell& mine = cell(c.src, c.dst, c.phase);
    mine.messages += c.messages;
    mine.bytes += c.bytes;
    mine.wait_s += c.wait_s;
  }
  return *this;
}

}  // namespace hetscale::obs
