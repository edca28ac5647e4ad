// Micro-benchmarks of the communication observatory's hot paths.
//
// BM_CommMatrixRecord times the per-message cost the vmpi send/recv hooks
// pay when tracing is ON — one map-backed cell update per record — over a
// realistic working set (an 8-rank all-pairs matrix across three phases).
// BM_CriticalPath times the full backward walk over a synthetic ping-pong
// span DAG of the shape the analyzer sees per run: two lanes, alternating
// compute and recv.wait, one message hop per round.
#include <benchmark/benchmark.h>

#include <cstdint>
#include <vector>

#include "hetscale/obs/comm_matrix.hpp"
#include "hetscale/obs/critical_path.hpp"
#include "hetscale/obs/span.hpp"

namespace {

using namespace hetscale;

void BM_CommMatrixRecord(benchmark::State& state) {
  const int ranks = static_cast<int>(state.range(0));
  obs::CommMatrix warm;
  for (auto _ : state) {
    // Cycle through all (src, dst) pairs and three phases, the mix a
    // collective-heavy run produces; the matrix stays warm across
    // iterations like it does across a run.
    int phase = 0;
    for (int src = 0; src < ranks; ++src) {
      for (int dst = 0; dst < ranks; ++dst) {
        if (src == dst) continue;
        warm.record_send(src, dst,
                         static_cast<obs::CommPhase>(phase % 3), 1024.0);
        ++phase;
      }
    }
    benchmark::DoNotOptimize(warm.total_messages());
  }
  state.SetItemsProcessed(state.iterations() *
                          static_cast<std::int64_t>(ranks) * (ranks - 1));
}
BENCHMARK(BM_CommMatrixRecord)->Arg(8);

void BM_CriticalPath(benchmark::State& state) {
  const int rounds = static_cast<int>(state.range(0));
  obs::SpanStore store;
  const int compute = store.intern("compute");
  const int recv = store.intern("recv.wait");
  obs::MessageLog messages;
  double t = 0.0;
  for (int round = 0; round < rounds; ++round) {
    const int src = round % 2;
    const int dst = 1 - src;
    store.record(src, compute, t, t + 0.1);
    store.record(dst, recv, t, t + 0.2, /*peer=*/src, /*tag=*/1);
    messages.record(obs::PathMessage{src, dst, 1, 8.0, t + 0.1, t + 0.2});
    t += 0.2;
  }
  for (auto _ : state) {
    benchmark::DoNotOptimize(obs::critical_path(store, messages, t));
  }
  state.SetItemsProcessed(state.iterations() * rounds);
}
BENCHMARK(BM_CriticalPath)->Arg(256)->Arg(2048);

}  // namespace
