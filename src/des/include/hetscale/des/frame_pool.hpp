// A slab recycler for coroutine frames.
//
// Every simulated operation (a send, a recv, a collective step) is a Task
// coroutine, so the simulator's allocation rate is dominated by frame
// new/delete pairs of a handful of distinct sizes. Frames are recycled
// through thread-local size-binned freelists: a simulation runs entirely on
// one thread (the Runner gives each concurrent simulation its own worker), so
// no locks are needed and a frame always returns to the freelist it came
// from.
//
// Under AddressSanitizer the recycled blocks are poisoned while parked, so
// use-after-free of a completed coroutine frame still traps.
#pragma once

#include <cstddef>

namespace hetscale::des::detail {

/// Allocate storage for a coroutine frame of `size` bytes.
void* frame_alloc(std::size_t size);

/// Return a frame to the pool (sizes above the pooled range go straight back
/// to the heap).
void frame_free(void* p, std::size_t size) noexcept;

/// Statistics for benchmarks: frames currently parked on this thread's
/// freelists.
std::size_t frame_pool_parked();

/// Frames currently allocated (not yet freed) on this thread — one per
/// suspended coroutine, roughly.
std::size_t frame_pool_live();

/// High-water mark of frame_pool_live() since the last reset. Machine::run
/// resets it at launch so a profiled run reports its own peak.
std::size_t frame_pool_live_peak();

/// Restart the high-water mark at the current live count, and trim every
/// freelist to what the pool may park under the new mark.
void frame_pool_reset_live_peak();

}  // namespace hetscale::des::detail
