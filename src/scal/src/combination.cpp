#include "hetscale/scal/combination.hpp"

#include <algorithm>
#include <utility>

#include "hetscale/algos/ge.hpp"
#include "hetscale/algos/ge_pivot.hpp"
#include "hetscale/algos/jacobi.hpp"
#include "hetscale/algos/mm.hpp"
#include "hetscale/algos/sort.hpp"
#include "hetscale/algos/summa.hpp"
#include "hetscale/dist/distribution.hpp"
#include "hetscale/marked/suite.hpp"
#include "hetscale/numeric/linsolve.hpp"
#include "hetscale/run/runner.hpp"
#include "hetscale/scal/measure_store.hpp"
#include "hetscale/scal/metrics.hpp"
#include "hetscale/support/error.hpp"

namespace hetscale::scal {

std::vector<Measurement> Combination::measure_many(
    std::span<const std::int64_t> sizes, run::Runner& /*runner*/) {
  // Sequential fallback for combinations that cannot promise independent
  // concurrent runs.
  std::vector<Measurement> out;
  out.reserve(sizes.size());
  for (const auto n : sizes) out.push_back(measure(n));
  return out;
}

vmpi::Machine make_machine(const machine::Cluster& cluster, NetworkKind kind,
                           const net::NetworkParams& params,
                           const vmpi::CollectiveTuning& tuning) {
  if (kind == NetworkKind::kSharedBus) {
    return vmpi::Machine::shared_bus(cluster, params, tuning);
  }
  return vmpi::Machine::switched(cluster, params, tuning);
}

ClusterCombination::ClusterCombination(std::string name, Config config,
                                       Algorithm algorithm)
    : name_(std::move(name)),
      config_(std::move(config)),
      algorithm_(std::move(algorithm)) {
  rank_speeds_ = marked::rank_marked_speeds(config_.cluster);
  marked_speed_ = 0.0;
  for (double c : rank_speeds_) marked_speed_ += c;
  store_key_ = config_fingerprint(algorithm_.key, config_.cluster,
                                  config_.network, config_.net_params,
                                  config_.with_data, config_.tuning);
}

const Measurement& ClusterCombination::measure(std::int64_t n) {
  // Single probe: try_emplace both answers membership and reserves the
  // slot, so hit and miss each cost one tree walk.
  const auto [it, inserted] = cache_.try_emplace(n);
  if (!inserted) return it->second;
  auto& store = MeasurementStore::global();
  if (store.enabled() && store.try_get(store_key_, n, it->second)) {
    return it->second;
  }
  try {
    it->second = compute(n);
  } catch (...) {
    cache_.erase(it);  // don't leave a default-constructed placeholder
    throw;
  }
  if (store.enabled()) store.put(store_key_, n, it->second);
  return it->second;
}

Measurement ClusterCombination::compute(std::int64_t n) const {
  HETSCALE_REQUIRE(n >= 1, "problem size must be >= 1");
  auto machine = make_machine(config_.cluster, config_.network,
                              config_.net_params, config_.tuning);
  const RunOutcome outcome = run_once(machine, n);

  Measurement m;
  m.n = n;
  m.work_flops = outcome.work_flops;
  m.seconds = outcome.seconds;
  m.speed_flops = achieved_speed(outcome.work_flops, outcome.seconds);
  m.speed_efficiency =
      speed_efficiency(outcome.work_flops, outcome.seconds, marked_speed_);
  m.overhead_s = outcome.overhead_s;
  return m;
}

std::vector<Measurement> ClusterCombination::measure_many(
    std::span<const std::int64_t> sizes, run::Runner& runner) {
  // Sizes still to simulate, deduplicated. A single try_emplace probe per
  // size answers membership and reserves the slot the result lands in.
  // std::map iterators stay valid across later insertions, so collecting
  // them is safe.
  auto& store = MeasurementStore::global();
  const bool use_store = store.enabled();
  using Slot = std::map<std::int64_t, Measurement>::iterator;
  std::vector<std::pair<std::int64_t, Slot>> batch;
  for (const auto n : sizes) {
    const auto [it, inserted] = cache_.try_emplace(n);
    if (!inserted) continue;
    if (use_store && store.try_get(store_key_, n, it->second)) continue;
    batch.emplace_back(n, it);
  }
  // Shape the batch for the work-stealing Runner: ascending by problem
  // size. Simulation cost grows with n, and the Runner deals indices
  // round-robin with each lane popping its own deque LIFO — so after this
  // sort every lane *starts* on its most expensive probe (LPT-style) and
  // lanes that run dry steal the cheap leftovers. Execution order never
  // shows in the output: results land through the collected map iterators
  // and the returned vector is rebuilt in request order below.
  std::stable_sort(
      batch.begin(), batch.end(),
      [](const auto& a, const auto& b) { return a.first < b.first; });

  try {
    if (runner.jobs() > 1 && batch.size() > 1) {
      const auto computed = runner.map(
          batch.size(), [&](std::size_t i) { return compute(batch[i].first); });
      // Merge on the calling thread.
      for (std::size_t i = 0; i < batch.size(); ++i) {
        batch[i].second->second = computed[i];
      }
    } else {
      for (auto& [n, slot] : batch) slot->second = compute(n);
    }
  } catch (...) {
    for (auto& [n, slot] : batch) cache_.erase(slot);
    throw;
  }
  if (use_store) {
    for (const auto& [n, slot] : batch) {
      store.put(store_key_, n, slot->second);
    }
  }

  std::vector<Measurement> out;
  out.reserve(sizes.size());
  for (const auto n : sizes) out.push_back(cache_.at(n));
  return out;
}

namespace {

double ge_work(std::int64_t n) {
  return numeric::ge_workload(static_cast<double>(n));
}

double mm_work(std::int64_t n) {
  return numeric::mm_workload(static_cast<double>(n));
}

}  // namespace

Algorithm ge_algorithm() {
  return {"ge", ge_work, run_with(algos::GeOptions{}, algos::run_parallel_ge)};
}

Algorithm mm_algorithm() {
  return {"mm", mm_work, run_with(algos::MmOptions{}, algos::run_parallel_mm)};
}

Algorithm sort_algorithm(algos::SortSplitters splitters) {
  algos::SortOptions options;
  options.splitters = splitters;
  return {"sort:" + std::to_string(static_cast<int>(splitters)),
          algos::sort_workload,
          run_with(options, algos::run_parallel_sort)};
}

Algorithm jacobi_algorithm(std::int64_t sweeps) {
  HETSCALE_REQUIRE(sweeps >= 1, "Jacobi needs sweeps >= 1");
  algos::JacobiOptions options;
  options.sweeps = sweeps;
  return {"jacobi:sweeps=" + std::to_string(sweeps),
          [sweeps](std::int64_t n) {
            return algos::jacobi_workload(n, sweeps);
          },
          run_with(options, algos::run_parallel_jacobi)};
}

Algorithm summa_algorithm(std::int64_t tile) {
  HETSCALE_REQUIRE(tile >= 1, "SUMMA needs tile >= 1");
  algos::SummaOptions options;
  options.tile = tile;
  return {"summa:tile=" + std::to_string(tile), mm_work,
          run_with(options, algos::run_parallel_summa)};
}

Algorithm ge_pivot_algorithm(std::int64_t panel) {
  HETSCALE_REQUIRE(panel >= 1, "pivoted GE needs panel >= 1");
  algos::GePivotOptions options;
  options.panel = panel;
  return {"ge_pivot:panel=" + std::to_string(panel), ge_work,
          run_with(options, algos::run_parallel_ge_pivot)};
}

Algorithm spmv_algorithm(std::int64_t sweeps,
                         algos::SpmvDistribution distribution) {
  HETSCALE_REQUIRE(sweeps >= 1, "SpMV needs sweeps >= 1");
  algos::SpmvOptions options;
  options.sweeps = sweeps;
  options.distribution = distribution;
  return {"spmv:sweeps=" + std::to_string(sweeps) + ",dist=" +
              (distribution == algos::SpmvDistribution::kHeterogeneousBlock
                   ? "het"
                   : "hom"),
          [sweeps](std::int64_t n) {
            const auto nnz =
                algos::make_synthetic_csr(n, algos::SpmvOptions{}.seed).nnz();
            return static_cast<double>(sweeps) * 2.0 *
                   static_cast<double>(nnz);
          },
          run_with(options, algos::run_parallel_spmv)};
}

double spmv_work_imbalance(const std::vector<double>& speeds, std::int64_t n,
                           algos::SpmvDistribution distribution) {
  const int p = static_cast<int>(speeds.size());
  const auto counts =
      distribution == algos::SpmvDistribution::kHeterogeneousBlock
          ? dist::het_block_counts(speeds, n)
          : dist::block_counts(p, n);
  const auto offsets = dist::block_offsets(counts);
  const auto csr = algos::make_synthetic_csr(n, algos::SpmvOptions{}.seed);
  std::vector<std::int64_t> nnz_counts(static_cast<std::size_t>(p));
  for (std::size_t i = 0; i < nnz_counts.size(); ++i) {
    nnz_counts[i] =
        csr.row_ptr[static_cast<std::size_t>(offsets[i + 1])] -
        csr.row_ptr[static_cast<std::size_t>(offsets[i])];
  }
  return dist::imbalance(speeds, nnz_counts);
}

std::vector<double> EfficiencyCurve::sizes() const {
  std::vector<double> xs;
  xs.reserve(samples.size());
  for (const auto& m : samples) xs.push_back(static_cast<double>(m.n));
  return xs;
}

std::vector<double> EfficiencyCurve::efficiencies() const {
  std::vector<double> ys;
  ys.reserve(samples.size());
  for (const auto& m : samples) ys.push_back(m.speed_efficiency);
  return ys;
}

EfficiencyCurve sample_efficiency_curve(Combination& combination,
                                        std::span<const std::int64_t> sizes) {
  EfficiencyCurve curve;
  curve.label = combination.name();
  curve.samples.reserve(sizes.size());
  for (auto n : sizes) curve.samples.push_back(combination.measure(n));
  return curve;
}

EfficiencyCurve sample_efficiency_curve(Combination& combination,
                                        std::span<const std::int64_t> sizes,
                                        run::Runner& runner) {
  EfficiencyCurve curve;
  curve.label = combination.name();
  curve.samples = combination.measure_many(sizes, runner);
  return curve;
}

numeric::Polynomial fit_trend(const EfficiencyCurve& curve,
                              std::size_t degree) {
  return numeric::polyfit(curve.sizes(), curve.efficiencies(), degree);
}

}  // namespace hetscale::scal
