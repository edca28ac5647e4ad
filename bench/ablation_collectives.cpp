// Ablation — what if Sunwulf had a modern MPI?
//
// The paper measured flat, Θ(p) collectives (T_bcast ≈ 0.23·p ms). This
// ablation re-runs the GE ladder with binomial-tree short broadcasts
// (Θ(log p), what today's MPIs do) and compares required problem sizes and
// ψ: how much of GE's limited scalability was the collective algorithm?
#include <iostream>

#include "hetscale/scal/iso_solver.hpp"
#include "hetscale/scal/metrics.hpp"
#include "hetscale/scenarios/paper.hpp"
#include "hetscale/support/table.hpp"

int main() {
  using namespace hetscale;
  std::cout << scenarios::artifact_header(
      "Ablation  Collective algorithms (flat vs binomial bcast)",
      "GE ladder at E_s = 0.3 under the paper's flat-tree MPI vs a "
      "binomial-tree one.");

  // ge_config carries the paper's MPICH, CollectiveTuning::legacy_flat();
  // the binomial variant changes only its short broadcasts. The tuning is
  // part of the measurement-store fingerprint, so the two never alias.
  auto tuned_config = [](int nodes, vmpi::BcastAlgorithm small_bcast) {
    auto config = scenarios::ge_config(nodes);
    config.tuning.small_bcast = small_bcast;
    return config;
  };

  Table table;
  table.set_header({"Nodes", "N (flat)", "N (binomial)", "psi step (flat)",
                    "psi step (binomial)"});
  double prev_flat_c = 0;
  double prev_flat_w = 0;
  double prev_tree_c = 0;
  double prev_tree_w = 0;
  for (int nodes : {2, 4, 8, 16}) {
    scal::GeCombination with_flat(
        "flat", tuned_config(nodes, vmpi::BcastAlgorithm::kFlatTree));
    scal::GeCombination with_tree(
        "tree", tuned_config(nodes, vmpi::BcastAlgorithm::kBinomialTree));
    const auto flat_point =
        scal::required_problem_size(with_flat, scenarios::kGeTargetEs);
    const auto tree_point =
        scal::required_problem_size(with_tree, scenarios::kGeTargetEs);
    std::string flat_psi = "-";
    std::string tree_psi = "-";
    if (prev_flat_c > 0) {
      flat_psi = Table::fixed(
          scal::isospeed_efficiency_scalability(
              prev_flat_c, prev_flat_w, with_flat.marked_speed(),
              with_flat.work(flat_point.n)),
          3);
      tree_psi = Table::fixed(
          scal::isospeed_efficiency_scalability(
              prev_tree_c, prev_tree_w, with_tree.marked_speed(),
              with_tree.work(tree_point.n)),
          3);
    }
    table.add_row({std::to_string(nodes), std::to_string(flat_point.n),
                   std::to_string(tree_point.n), flat_psi, tree_psi});
    prev_flat_c = with_flat.marked_speed();
    prev_flat_w = with_flat.work(flat_point.n);
    prev_tree_c = with_tree.marked_speed();
    prev_tree_w = with_tree.work(tree_point.n);
  }
  std::cout << table;
  std::cout << "(binomial collectives shrink the required problem sizes and "
               "lift psi — a large share of GE's 2005 scalability ceiling "
               "was the flat MPI, not the algorithm)\n";
  return 0;
}
