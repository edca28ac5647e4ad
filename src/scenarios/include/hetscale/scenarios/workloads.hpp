// The workload table — one row per `--algo` key.
//
// A row is everything the front ends know about an algorithm: its
// combination (scal::Algorithm), which of the paper's ensemble ladders it
// runs on, its default isospeed target, its analytic Theorem-1 model (if
// any), and its model-zoo sizes (if it is part of the fit study). The CLI,
// `predict` and the model zoo all read this table; nothing else maps an
// algorithm name to code.
#pragma once

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "hetscale/predict/models.hpp"
#include "hetscale/scal/combination.hpp"

namespace hetscale::scenarios {

struct Workload {
  std::string key;  ///< the `--algo` value
  scal::Algorithm algorithm;
  bool mm_ensembles = false;  ///< runs on the MM ladder, else the GE ladder
  double target_es = 0.3;     ///< default isospeed-efficiency target
  /// The analytic overhead model (static storage), or null. Its sweep
  /// counts match the algorithm's.
  const predict::OverheadModel* model = nullptr;
  std::vector<std::int64_t> zoo_sizes;  ///< empty: not in the fit study

  /// The combination on `cluster`, named "<key> on <cluster summary>".
  std::unique_ptr<scal::ClusterCombination> on_cluster(
      machine::Cluster cluster) const;

  /// The paper's `nodes`-node ensemble of the row's ladder.
  machine::Cluster ensemble(int nodes) const;

  /// The combination on ensemble(nodes).
  std::unique_ptr<scal::ClusterCombination> on_ensemble(int nodes) const;

  /// The analytic model; throws PreconditionError for rows without one.
  const predict::OverheadModel& analytic_model() const;
};

/// Every row, in `--help` order.
const std::vector<Workload>& workloads();

/// The row for `key`; throws PreconditionError listing the table's keys.
const Workload& find_workload(const std::string& key);

/// The keys of the fit-study rows (those with zoo sizes), in table order.
std::vector<std::string> zoo_keys();

/// "a, b, or c" over the keys of the rows `keep` accepts (every row by
/// default) — the `--algo` help text and the error messages.
std::string workload_key_list(bool (*keep)(const Workload&) = nullptr);

}  // namespace hetscale::scenarios
