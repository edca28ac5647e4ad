#include "hetscale/scenarios/workloads.hpp"

#include <utility>

#include "hetscale/scenarios/paper.hpp"
#include "hetscale/support/error.hpp"

namespace hetscale::scenarios {

namespace {

/// Sweep count shared by the Jacobi and SpMV rows and their analytic
/// models.
constexpr std::int64_t kSweeps = 50;

std::vector<Workload> build_table() {
  using algos::SpmvDistribution;
  static const predict::GeOverheadModel ge_model;
  static const predict::MmOverheadModel mm_model;
  static const predict::JacobiOverheadModel jacobi_model(kSweeps);
  static const predict::SpmvOverheadModel spmv_model(kSweeps);
  // spmv's CSR streaming stall caps E_s well below the dense targets, so
  // its rows default to a low bar.
  return {
      {"ge", scal::ge_algorithm(), false, kGeTargetEs, &ge_model,
       {64, 128, 256, 384, 512}},
      {"mm", scal::mm_algorithm(), true, kMmTargetEs, &mm_model,
       {32, 64, 128, 192, 256}},
      {"sort", scal::sort_algorithm(), false, kGeTargetEs, nullptr, {}},
      {"jacobi", scal::jacobi_algorithm(kSweeps), false, kGeTargetEs,
       &jacobi_model, {64, 128, 256, 384, 512}},
      {"summa", scal::summa_algorithm(), true, kMmTargetEs, nullptr, {}},
      {"ge_pivot", scal::ge_pivot_algorithm(), false, kGeTargetEs, nullptr,
       {}},
      {"spmv",
       scal::spmv_algorithm(kSweeps, SpmvDistribution::kHeterogeneousBlock),
       true, 0.05, &spmv_model, {128, 256, 512, 768, 1024}},
      {"spmv-hom",
       scal::spmv_algorithm(kSweeps, SpmvDistribution::kHomogeneousBlock),
       true, 0.05, nullptr, {}},
  };
}

}  // namespace

std::unique_ptr<scal::ClusterCombination> Workload::on_cluster(
    machine::Cluster cluster) const {
  scal::ClusterCombination::Config config;
  config.cluster = std::move(cluster);
  std::string name = key + " on " + config.cluster.summary();
  return std::make_unique<scal::ClusterCombination>(
      std::move(name), std::move(config), algorithm);
}

machine::Cluster Workload::ensemble(int nodes) const {
  return mm_ensembles ? machine::sunwulf::mm_ensemble(nodes)
                      : machine::sunwulf::ge_ensemble(nodes);
}

std::unique_ptr<scal::ClusterCombination> Workload::on_ensemble(
    int nodes) const {
  return on_cluster(ensemble(nodes));
}

const predict::OverheadModel& Workload::analytic_model() const {
  HETSCALE_REQUIRE(model != nullptr,
                   "no analytic overhead model for algorithm '" + key +
                       "' (supported: " +
                       workload_key_list([](const Workload& row) {
                         return row.model != nullptr;
                       }) +
                       ")");
  return *model;
}

const std::vector<Workload>& workloads() {
  static const std::vector<Workload> table = build_table();
  return table;
}

const Workload& find_workload(const std::string& key) {
  for (const auto& row : workloads()) {
    if (row.key == key) return row;
  }
  throw PreconditionError("unknown --algo '" + key + "' (expected " +
                          workload_key_list() + ")");
}

std::vector<std::string> zoo_keys() {
  std::vector<std::string> keys;
  for (const auto& row : workloads()) {
    if (!row.zoo_sizes.empty()) keys.push_back(row.key);
  }
  return keys;
}

std::string workload_key_list(bool (*keep)(const Workload&)) {
  std::vector<std::string> keys;
  for (const auto& row : workloads()) {
    if (keep == nullptr || keep(row)) keys.push_back(row.key);
  }
  std::string joined;
  for (std::size_t i = 0; i < keys.size(); ++i) {
    if (i > 0) joined += keys.size() > 2 ? ", " : " ";
    if (i > 0 && i + 1 == keys.size()) joined += "or ";
    joined += keys[i];
  }
  return joined;
}

}  // namespace hetscale::scenarios
