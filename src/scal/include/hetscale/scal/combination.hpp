// Algorithm-system combinations — the unit the metric is defined over.
//
// "An algorithm-system combination is scalable if the achieved
//  speed-efficiency of the combination can remain constant with increasing
//  system ensemble size, provided the problem size can be increased with
//  the system size." (Definition 4)
//
// A Combination bundles an algorithm with a concrete (simulated) system and
// can be *measured* at any problem size N. Measurements are cached: the
// marked speed is a constant of the study (Definition 1), and the simulator
// is deterministic, so re-measuring the same N is pure waste.
#pragma once

#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <span>
#include <string>
#include <utility>
#include <vector>

#include "hetscale/algos/sort.hpp"
#include "hetscale/algos/spmv.hpp"
#include "hetscale/machine/cluster.hpp"
#include "hetscale/net/network.hpp"
#include "hetscale/numeric/polynomial.hpp"
#include "hetscale/vmpi/machine.hpp"

namespace hetscale::run {
class Runner;
}  // namespace hetscale::run

namespace hetscale::scal {

/// One measured point of a combination (a row of the paper's Table 2).
struct Measurement {
  std::int64_t n = 0;
  double work_flops = 0.0;
  double seconds = 0.0;
  double speed_flops = 0.0;       ///< S = W/T
  double speed_efficiency = 0.0;  ///< E_s = S/C
  double overhead_s = 0.0;        ///< critical-path T_o (see RunResult)
};

enum class NetworkKind { kSharedBus, kSwitched };

/// What one run of an algorithm reports: the workload it performed, the
/// simulated elapsed time, and the critical-path overhead T_o.
struct RunOutcome {
  double work_flops = 0.0;
  double seconds = 0.0;
  double overhead_s = 0.0;
};

/// The algorithm half of a combination, as a value.
struct Algorithm {
  /// Run once at size n on a fresh machine. Must be safe to call from
  /// several worker threads at once, each with its own machine.
  using Run = std::function<RunOutcome(vmpi::Machine& machine, std::int64_t n,
                                       bool with_data,
                                       const std::vector<double>& speeds)>;

  /// Everything about the algorithm that determines a run, e.g.
  /// "jacobi:sweeps=50". Combined with the cluster/network config into the
  /// MeasurementStore fingerprint, so combinations measured under different
  /// display names still share measurements.
  std::string key;
  std::function<double(std::int64_t n)> work;  ///< W(N)
  Run run;
};

/// Adapt an algos::run_parallel_* entry point to Algorithm::Run. `base`
/// carries the algorithm's own parameters; each run fills in n, with_data
/// (where the options have it) and the per-rank marked speeds.
template <class Options, class Result>
Algorithm::Run run_with(Options base,
                        Result (*run)(vmpi::Machine&, const Options&)) {
  return [base = std::move(base), run](vmpi::Machine& machine, std::int64_t n,
                                       bool with_data,
                                       const std::vector<double>& speeds) {
    Options options = base;
    options.n = n;
    if constexpr (requires { options.with_data; }) {
      options.with_data = with_data;
    }
    options.speeds = speeds;
    const Result result = run(machine, options);
    return RunOutcome{result.work_flops, result.run.elapsed,
                      result.run.overhead_s()};
  };
}

/// The library's algorithms. GE and MM are the paper's; the rest are
/// extensions (algos/*.hpp). SUMMA shares MM's W(N) and pivoted GE shares
/// GE's — the pivot search and panel reconstruction are charged overhead,
/// so its E_s sits below pivot-free GE by construction.
Algorithm ge_algorithm();
Algorithm mm_algorithm();
/// Sample sort always runs on real keys — its load balance is
/// data-dependent by nature.
Algorithm sort_algorithm(
    algos::SortSplitters splitters = algos::SortSplitters::kSpeedProportional);
Algorithm jacobi_algorithm(std::int64_t sweeps);
Algorithm summa_algorithm(std::int64_t tile = 64);
Algorithm ge_pivot_algorithm(std::int64_t panel = 32);
/// Iterated CSR SpMV, W(N) = sweeps * 2 * nnz(N). The row split is the
/// ablation axis.
Algorithm spmv_algorithm(std::int64_t sweeps = 50,
                         algos::SpmvDistribution distribution =
                             algos::SpmvDistribution::kHeterogeneousBlock);

/// nnz-weighted dist::imbalance of the SpMV row split over ranks of
/// `speeds` at size n — a pure function of the split, no simulation.
double spmv_work_imbalance(const std::vector<double>& speeds, std::int64_t n,
                           algos::SpmvDistribution distribution);

/// Build a single-shot machine for one run of a combination. The tuning
/// default is the paper-era flat collective family: every measurement path
/// that predates the tree collectives pins legacy behaviour unless its
/// combination asks otherwise.
vmpi::Machine make_machine(
    const machine::Cluster& cluster, NetworkKind kind,
    const net::NetworkParams& params,
    const vmpi::CollectiveTuning& tuning = vmpi::CollectiveTuning::legacy_flat());

class Combination {
 public:
  virtual ~Combination() = default;

  virtual const std::string& name() const = 0;

  /// C — the system's marked speed (flop/s), a constant of the study.
  virtual double marked_speed() const = 0;

  /// W(N) — the workload polynomial of the algorithm.
  virtual double work(std::int64_t n) const = 0;

  /// Run (simulate) the combination at problem size N; cached.
  virtual const Measurement& measure(std::int64_t n) = 0;

  /// Measure a batch of sizes, returned in request order. The base
  /// implementation is the sequential fallback (a measure() loop);
  /// combinations whose runs are independent override it to execute the
  /// uncached sizes concurrently on the runner. Results are merged in
  /// request order, so the outcome is bit-identical to sequential.
  virtual std::vector<Measurement> measure_many(
      std::span<const std::int64_t> sizes, run::Runner& runner);
};

/// An algorithm on a simulated cluster.
class ClusterCombination : public Combination {
 public:
  struct Config {
    machine::Cluster cluster;
    /// Default matches the modeled testbed: a switched 100 Mb Ethernet
    /// (per-node injection serialization). Shared-bus is the ablation.
    NetworkKind network = NetworkKind::kSwitched;
    net::NetworkParams net_params{};
    bool with_data = false;  ///< timing-only by default for sweeps
    /// Collective algorithm family the combination's machines run. Defaults
    /// to the paper-era flat family so every pre-existing scenario (and its
    /// golden artifact) is byte-identical to the original runs; large-p
    /// studies opt into vmpi::CollectiveTuning::tree(). Part of the
    /// measurement fingerprint — flat and tree runs never alias in the
    /// store.
    vmpi::CollectiveTuning tuning = vmpi::CollectiveTuning::legacy_flat();
  };

  ClusterCombination(std::string name, Config config, Algorithm algorithm);

  const std::string& name() const override { return name_; }
  double marked_speed() const override { return marked_speed_; }
  double work(std::int64_t n) const override { return algorithm_.work(n); }
  const Measurement& measure(std::int64_t n) override;

  /// Uncached sizes are simulated concurrently: every run builds its own
  /// machine and only reads shared state, so simulations are independent;
  /// the cache is filled on the calling thread in request order.
  std::vector<Measurement> measure_many(std::span<const std::int64_t> sizes,
                                        run::Runner& runner) override;

  const Config& config() const { return config_; }
  const machine::Cluster& cluster() const { return config_.cluster; }
  const std::vector<double>& rank_speeds() const { return rank_speeds_; }
  int processor_count() const { return config_.cluster.processor_count(); }

  /// The MeasurementStore fingerprint: algorithm key plus system config.
  const std::string& store_key() const { return store_key_; }

  /// Run the algorithm once on `machine`, uncached. The fault study and
  /// the profiled path call it on machines of their own.
  RunOutcome run_once(vmpi::Machine& machine, std::int64_t n) const {
    return algorithm_.run(machine, n, config_.with_data, rank_speeds_);
  }

 private:
  /// One full simulation at size n — pure w.r.t. this object.
  Measurement compute(std::int64_t n) const;

  std::string name_;
  Config config_;
  Algorithm algorithm_;
  double marked_speed_ = 0.0;        ///< measured once, then constant
  std::vector<double> rank_speeds_;  ///< per-rank marked speeds
  std::map<std::int64_t, Measurement> cache_;
  std::string store_key_;
};

/// Names for the paper's two combinations and the Jacobi extension.
class GeCombination final : public ClusterCombination {
 public:
  GeCombination(std::string name, Config config)
      : ClusterCombination(std::move(name), std::move(config),
                           ge_algorithm()) {}
};

class MmCombination final : public ClusterCombination {
 public:
  MmCombination(std::string name, Config config)
      : ClusterCombination(std::move(name), std::move(config),
                           mm_algorithm()) {}
};

class JacobiCombination final : public ClusterCombination {
 public:
  JacobiCombination(std::string name, Config config, std::int64_t sweeps)
      : ClusterCombination(std::move(name), std::move(config),
                           jacobi_algorithm(sweeps)) {}
};

/// A sampled speed-efficiency curve (the data behind Figs. 1–2).
struct EfficiencyCurve {
  std::string label;
  std::vector<Measurement> samples;

  std::vector<double> sizes() const;
  std::vector<double> efficiencies() const;
};

/// Measure the combination at each size.
EfficiencyCurve sample_efficiency_curve(Combination& combination,
                                        std::span<const std::int64_t> sizes);

/// Measure the combination at each size as one batch on the runner —
/// byte-identical samples to the sequential overload, in any jobs count.
EfficiencyCurve sample_efficiency_curve(Combination& combination,
                                        std::span<const std::int64_t> sizes,
                                        run::Runner& runner);

/// Least-squares polynomial trend line through (N, E_s) samples — the
/// paper's "Poly." curves in Figs. 1 and 2.
numeric::Polynomial fit_trend(const EfficiencyCurve& curve,
                              std::size_t degree = 3);

}  // namespace hetscale::scal
