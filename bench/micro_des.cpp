// Micro-benchmarks of the simulation engine: event throughput, message
// passing, collectives, and a whole GE step — how much simulated work the
// harness can drive per wall-clock second.
#include <benchmark/benchmark.h>

#include <atomic>
#include <cstdint>
#include <cstdlib>
#include <new>
#include <string>

#include "hetscale/algos/ge.hpp"
#include "hetscale/des/scheduler.hpp"
#include "hetscale/des/timeline.hpp"
#include "hetscale/machine/sunwulf.hpp"
#include "hetscale/support/units.hpp"
#include "hetscale/vmpi/machine.hpp"
#if __has_include("hetscale/scal/measure_store.hpp")
#include "hetscale/scal/measure_store.hpp"
#define HETSCALE_HAS_MEASURE_STORE 1
#endif
#include "hetscale/run/runner.hpp"
#include "hetscale/scal/iso_solver.hpp"
#include "hetscale/scenarios/paper.hpp"

// ---- Counting allocator hook ------------------------------------------------
// Global operator new is replaced binary-wide so the benchmarks can report
// allocations per simulated event/message — the quantity the slab queue and
// payload arena exist to eliminate. The count is relaxed-atomic: workers
// allocate concurrently in the ladder benchmark, and ordering is irrelevant.
namespace {
std::atomic<std::uint64_t> g_alloc_count{0};
}  // namespace

void* operator new(std::size_t size) {
  g_alloc_count.fetch_add(1, std::memory_order_relaxed);
  if (void* p = std::malloc(size)) return p;
  throw std::bad_alloc();
}
void* operator new[](std::size_t size) { return ::operator new(size); }
void operator delete(void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t) noexcept { std::free(p); }

namespace {

using namespace hetscale;
using des::Task;

std::uint64_t allocations() {
  return g_alloc_count.load(std::memory_order_relaxed);
}

// args: {total events, concurrent delay loops}. One loop is the ubiquitous
// schedule-one/pop-one rhythm (the scheduler's front-slot fast path); many
// loops keep that many events pending at once, which is where the queue
// structure itself — ladder buckets vs binary heap — dominates. Staggered
// delay periods stop the loops from degenerating into lock-step ties.
void BM_SchedulerDelayEvents(benchmark::State& state) {
  const int events = static_cast<int>(state.range(0));
  const int loops = static_cast<int>(state.range(1));
  const int per_loop = events / loops;
  std::uint64_t allocs = 0;
  for (auto _ : state) {
    const std::uint64_t before = allocations();
    des::Scheduler sched;
    for (int c = 0; c < loops; ++c) {
      sched.spawn([](des::Scheduler& s, int n, double dt) -> Task<void> {
        for (int i = 0; i < n; ++i) co_await s.delay(dt);
      }(sched, per_loop, 1.0 + 0.001 * c));
    }
    sched.run();
    benchmark::DoNotOptimize(sched.now());
    allocs += allocations() - before;
  }
  const auto total = state.iterations() *
                     static_cast<std::uint64_t>(per_loop) * loops;
  state.SetItemsProcessed(static_cast<std::int64_t>(total));
  state.counters["allocs_per_event"] = benchmark::Counter(
      static_cast<double>(allocs) / static_cast<double>(total));
}
BENCHMARK(BM_SchedulerDelayEvents)
    ->Args({1000, 1})
    ->Args({100000, 1})
    ->Args({100000, 64})
    ->Args({100000, 1024});

void BM_TimelineReserve(benchmark::State& state) {
  des::Timeline timeline;
  double t = 0.0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(timeline.reserve(t, 1.0));
    t += 0.5;
  }
}
BENCHMARK(BM_TimelineReserve);

machine::Cluster blades(int n) {
  machine::Cluster cluster;
  for (int i = 0; i < n; ++i) {
    cluster.add_node("n" + std::to_string(i),
                     machine::sunwulf::sunblade_spec());
  }
  return cluster;
}

void BM_PingPong(benchmark::State& state) {
  const int rounds = static_cast<int>(state.range(0));
  std::uint64_t allocs = 0;
  for (auto _ : state) {
    auto machine = vmpi::Machine::switched(blades(2));
    const std::uint64_t before = allocations();
    machine.run([rounds](vmpi::Comm& comm) -> Task<void> {
      for (int i = 0; i < rounds; ++i) {
        if (comm.rank() == 0) {
          co_await comm.send(1, 1, 1024.0, {});
          co_await comm.recv(1, 2);
        } else {
          co_await comm.recv(0, 1);
          co_await comm.send(0, 2, 1024.0, {});
        }
      }
    });
    allocs += allocations() - before;
  }
  state.SetItemsProcessed(state.iterations() * rounds * 2);
  state.counters["allocs_per_msg"] = benchmark::Counter(
      static_cast<double>(allocs) /
      static_cast<double>(state.iterations() * rounds * 2));
}
BENCHMARK(BM_PingPong)->Arg(1000);

void BM_Barrier(benchmark::State& state) {
  const int ranks = static_cast<int>(state.range(0));
  for (auto _ : state) {
    auto machine = vmpi::Machine::switched(blades(ranks));
    machine.run([](vmpi::Comm& comm) -> Task<void> {
      for (int i = 0; i < 100; ++i) co_await comm.barrier();
    });
  }
  state.SetItemsProcessed(state.iterations() * 100 * ranks);
}
BENCHMARK(BM_Barrier)->Arg(4)->Arg(16)->Arg(64);

void BM_GeTimingOnlyRun(benchmark::State& state) {
  const auto n = state.range(0);
  for (auto _ : state) {
    auto machine =
        vmpi::Machine::switched(machine::sunwulf::ge_ensemble(4));
    algos::GeOptions options;
    options.n = n;
    options.with_data = false;
    benchmark::DoNotOptimize(
        algos::run_parallel_ge(machine, options).run.elapsed);
  }
  state.SetItemsProcessed(state.iterations() * n);
}
BENCHMARK(BM_GeTimingOnlyRun)->Arg(128)->Arg(512);

// The GE iso-solver ladder from table3/table4: direct search for the size
// achieving the paper's target speed-efficiency, one solve per node count.
// Measures end-to-end solver wall-clock with bisection waves on an 8-worker
// runner; the measurement store is disabled so every iteration pays for
// its simulations instead of replaying the first iteration's memo.
void BM_GeLadderSolve(benchmark::State& state) {
#ifdef HETSCALE_HAS_MEASURE_STORE
  auto& store = scal::MeasurementStore::global();
  const bool was_enabled = store.enabled();
  store.set_enabled(false);
#endif
  run::Runner runner(8);
  scal::IsoSolveOptions options;
  options.method = scal::IsoSolveOptions::Method::kDirectSearch;
  options.runner = &runner;
  for (auto _ : state) {
    double achieved = 0.0;
    for (const int nodes : {2, 4, 8}) {
      auto combo = scenarios::make_ge(nodes);
      const auto solved =
          scal::required_problem_size(*combo, scenarios::kGeTargetEs, options);
      achieved += solved.achieved_es;
    }
    benchmark::DoNotOptimize(achieved);
  }
#ifdef HETSCALE_HAS_MEASURE_STORE
  store.set_enabled(was_enabled);
#endif
}
BENCHMARK(BM_GeLadderSolve)->Unit(benchmark::kMillisecond);

void BM_GeWithDataRun(benchmark::State& state) {
  const auto n = state.range(0);
  for (auto _ : state) {
    auto machine =
        vmpi::Machine::switched(machine::sunwulf::ge_ensemble(4));
    algos::GeOptions options;
    options.n = n;
    options.with_data = true;
    benchmark::DoNotOptimize(
        algos::run_parallel_ge(machine, options).residual);
  }
}
BENCHMARK(BM_GeWithDataRun)->Arg(128);

}  // namespace
