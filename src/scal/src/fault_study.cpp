#include "hetscale/scal/fault_study.hpp"

#include <memory>
#include <set>
#include <utility>

#include "hetscale/fault/analysis.hpp"
#include "hetscale/fault/degraded_network.hpp"
#include "hetscale/net/shared_bus.hpp"
#include "hetscale/net/switched.hpp"
#include "hetscale/run/runner.hpp"
#include "hetscale/scal/metrics.hpp"
#include "hetscale/support/error.hpp"

namespace hetscale::scal {
namespace {

std::unique_ptr<net::Network> make_network(NetworkKind kind,
                                           const net::NetworkParams& params) {
  if (kind == NetworkKind::kSharedBus) {
    return std::make_unique<net::SharedBusNetwork>(params);
  }
  return std::make_unique<net::SwitchedNetwork>(params);
}

std::vector<double> processor_rates(const machine::Cluster& cluster) {
  std::vector<double> rates;
  for (const auto& p : cluster.processors()) rates.push_back(p.rate_flops);
  return rates;
}

}  // namespace

FaultedCombination::FaultedCombination(ClusterCombination& inner,
                                       const fault::FaultPlan& plan)
    : inner_(&inner), plan_(&plan), name_(inner.name() + "+faults") {}

double FaultedCombination::marked_speed() const {
  return inner_->marked_speed();
}

double FaultedCombination::work(std::int64_t n) const {
  return inner_->work(n);
}

FaultyMeasurement FaultedCombination::compute(std::int64_t n) const {
  HETSCALE_REQUIRE(n >= 1, "problem size must be >= 1");
  const auto& config = inner_->config();
  auto network = std::make_unique<fault::DegradedNetwork>(
      make_network(config.network, config.net_params), *plan_);
  vmpi::Machine machine(config.cluster, std::move(network), config.tuning);
  fault::Injector injector(*plan_, processor_rates(config.cluster));
  machine.attach_fault_hooks(&injector);

  const RunOutcome outcome = inner_->run_once(machine, n);

  FaultyMeasurement fm;
  fm.measurement.n = n;
  fm.measurement.work_flops = outcome.work_flops;
  fm.measurement.seconds = outcome.seconds;
  fm.measurement.speed_flops =
      achieved_speed(outcome.work_flops, outcome.seconds);
  fm.measurement.speed_efficiency = speed_efficiency(
      outcome.work_flops, outcome.seconds, inner_->marked_speed());
  fm.measurement.overhead_s = outcome.overhead_s;
  fm.effective_marked_speed = fault::mean_effective_marked_speed(
      *plan_, inner_->rank_speeds(), outcome.seconds);
  fm.degraded_es = speed_efficiency(outcome.work_flops, outcome.seconds,
                                    fm.effective_marked_speed);
  fm.fault_totals = injector.totals();
  fm.critical_path_fault_s = injector.critical_path_fault_s();
  return fm;
}

const FaultyMeasurement& FaultedCombination::measure_faulty(std::int64_t n) {
  if (auto it = cache_.find(n); it != cache_.end()) return it->second;
  return cache_.emplace(n, compute(n)).first->second;
}

const Measurement& FaultedCombination::measure(std::int64_t n) {
  return measure_faulty(n).measurement;
}

std::vector<Measurement> FaultedCombination::measure_many(
    std::span<const std::int64_t> sizes, run::Runner& runner) {
  // Same shape as ClusterCombination::measure_many: dedup the uncached
  // sizes, simulate them concurrently, merge in request order.
  std::vector<std::int64_t> missing;
  std::set<std::int64_t> seen;
  for (const auto n : sizes) {
    if (cache_.count(n) == 0 && seen.insert(n).second) missing.push_back(n);
  }

  if (runner.jobs() > 1 && missing.size() > 1) {
    const auto computed = runner.map(
        missing.size(), [&](std::size_t i) { return compute(missing[i]); });
    for (std::size_t i = 0; i < missing.size(); ++i) {
      cache_.emplace(missing[i], computed[i]);
    }
  } else {
    for (const auto n : missing) cache_.emplace(n, compute(n));
  }

  std::vector<Measurement> out;
  out.reserve(sizes.size());
  for (const auto n : sizes) out.push_back(cache_.at(n).measurement);
  return out;
}

FaultDecomposition decompose_faults(ClusterCombination& combination,
                                    std::int64_t n,
                                    const fault::FaultPlan& plan) {
  FaultedCombination faulted(combination, plan);
  FaultDecomposition d;
  d.healthy = combination.measure(n);
  d.faulty = faulted.measure_faulty(n);
  d.fault_overhead_s = d.faulty.measurement.seconds - d.healthy.seconds;
  d.attributed_s = d.faulty.critical_path_fault_s;
  d.residual_s = d.fault_overhead_s - d.attributed_s;
  d.efficiency_retention =
      d.healthy.speed_efficiency > 0.0
          ? d.faulty.measurement.speed_efficiency / d.healthy.speed_efficiency
          : 0.0;
  return d;
}

}  // namespace hetscale::scal
