// Beyond the paper: Corollary 2 applied to MM.
//
// The paper only predicts GE's scalability (§4.5). MM is the textbook case
// for Corollary 2 — perfectly parallel (α = 0), so ψ = To / To' exactly.
// This bench runs the same probe-and-model pipeline for MM and compares
// against the measured Table 5 values.
#include <iostream>

#include "hetscale/numeric/stats.hpp"
#include "hetscale/predict/models.hpp"
#include "hetscale/predict/probe.hpp"
#include "hetscale/scal/series.hpp"
#include "hetscale/scenarios/paper.hpp"
#include "hetscale/support/table.hpp"

int main() {
  using namespace hetscale;
  std::cout << scenarios::artifact_header(
      "Corollary 2 on MM  (beyond the paper)",
      "psi = To/To' with probed comm parameters vs measured MM psi at "
      "E_s = 0.2.");

  const auto comm = predict::probe_comm_model(
      predict::ProbeConfig{.node = machine::sunwulf::sunblade_spec()});
  predict::MmOverheadModel model;

  std::vector<std::unique_ptr<scal::MmCombination>> combos;
  std::vector<scal::Combination*> ptrs;
  for (int nodes : {2, 4, 8, 16}) {
    combos.push_back(scenarios::make_mm(nodes));
    ptrs.push_back(combos.back().get());
  }
  const auto measured = scal::scalability_series(ptrs, scenarios::kMmTargetEs);

  Table table;
  table.set_header(
      {"Step", "psi (Corollary 2)", "psi (measured)", "rel. error"});
  const int node_counts[] = {2, 4, 8, 16};
  for (std::size_t i = 0; i + 1 < std::size(node_counts); ++i) {
    const auto from = predict::system_model_for(
        machine::sunwulf::mm_ensemble(node_counts[i]), comm);
    const auto to = predict::system_model_for(
        machine::sunwulf::mm_ensemble(node_counts[i + 1]), comm);
    const double predicted =
        predict::predicted_scalability(model, from, to, scenarios::kMmTargetEs);
    const double got = measured.steps[i].psi;
    table.add_row({"psi(C" + std::to_string(node_counts[i]) + "', C" +
                       std::to_string(node_counts[i + 1]) + "')",
                   Table::fixed(predicted, 4), Table::fixed(got, 4),
                   Table::fixed(numeric::relative_error(predicted, got), 3)});
  }
  std::cout << table;
  std::cout << "(Corollary 2: a perfectly parallel algorithm's scalability "
               "is exactly the ratio of total overheads — the MM model has "
               "no sequential term at all)\n";
  return 0;
}
