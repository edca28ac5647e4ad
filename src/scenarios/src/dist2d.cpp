#include "hetscale/scenarios/dist2d.hpp"

#include <memory>
#include <sstream>
#include <utility>
#include <vector>

#include "hetscale/run/scenario.hpp"
#include "hetscale/scal/series.hpp"
#include "hetscale/scenarios/paper.hpp"
#include "hetscale/support/csv.hpp"
#include "hetscale/support/table.hpp"

namespace hetscale::scenarios {

namespace {

using run::RunContext;
using run::RunResult;
using run::Value;

/// The ladders stop at 16 nodes: the 2D scenarios add a baseline sweep on
/// top of the paper's, and the 32-node rung adds cost without changing any
/// of the comparisons these artifacts pin.
const std::vector<int> kDist2dNodeCounts{2, 4, 8, 16};

/// SUMMA over the MM ensembles (speed-balanced 2D grid, switched network).
std::unique_ptr<scal::ClusterCombination> make_summa(int nodes) {
  return std::make_unique<scal::ClusterCombination>(
      std::to_string(nodes) + " Nodes, C" + std::to_string(nodes) + "''",
      mm_config(nodes), scal::summa_algorithm());
}

/// Panel-blocked pivoted GE over the GE ensembles.
std::unique_ptr<scal::ClusterCombination> make_ge_pivot(int nodes) {
  return std::make_unique<scal::ClusterCombination>(
      std::to_string(nodes) + " Nodes, C" + std::to_string(nodes) + "p",
      ge_config(nodes), scal::ge_pivot_algorithm());
}

// ---- SUMMA: speed-efficiency curves + psi vs the 1D row algorithm -------

RunResult summa_mm(const RunContext& context) {
  RunResult result;
  result.scenario = "summa_mm_scalability";
  result.title = "SUMMA  Speed-efficiency on a 2D speed-balanced grid";
  std::ostringstream os;
  os << artifact_header(
      result.title,
      "SUMMA over the MM ensembles; same workload and inputs as the row "
      "algorithm, 2D block-cyclic tiles and panel broadcasts instead of "
      "row blocks. Baseline column: row MM on the 8-node ensemble.");

  std::vector<std::int64_t> sizes;
  for (std::int64_t n = 32; n <= 512; n += 32) sizes.push_back(n);

  std::vector<std::string> header{"N"};
  result.columns = {"n"};
  std::vector<scal::EfficiencyCurve> curves;
  for (int nodes : kDist2dNodeCounts) {
    auto combo = make_summa(nodes);
    curves.push_back(
        scal::sample_efficiency_curve(*combo, sizes, context.runner));
    header.push_back("es_" + std::to_string(nodes) + "nodes");
    result.columns.push_back("es_" + std::to_string(nodes) + "nodes");
  }
  auto row_mm = make_mm(8);
  const auto mm_curve =
      scal::sample_efficiency_curve(*row_mm, sizes, context.runner);
  header.push_back("es_row_mm_8nodes");
  result.columns.push_back("es_row_mm_8nodes");

  CsvWriter csv(std::move(header));
  for (std::size_t s = 0; s < sizes.size(); ++s) {
    std::vector<std::string> row{std::to_string(sizes[s])};
    std::vector<Value> cells{Value(sizes[s])};
    for (const auto& curve : curves) {
      row.push_back(Table::fixed(curve.samples[s].speed_efficiency, 4));
      cells.push_back(Value::fixed(curve.samples[s].speed_efficiency, 4));
    }
    row.push_back(Table::fixed(mm_curve.samples[s].speed_efficiency, 4));
    cells.push_back(Value::fixed(mm_curve.samples[s].speed_efficiency, 4));
    csv.add_row(std::move(row));
    result.add_row(std::move(cells));
  }
  os << csv.str() << '\n';

  // psi between ladder rungs at the paper's MM target, vs the row ladder.
  std::vector<std::unique_ptr<scal::ClusterCombination>> owned;
  std::vector<scal::Combination*> summa_ptrs;
  std::vector<scal::Combination*> mm_ptrs;
  for (int nodes : kDist2dNodeCounts) {
    owned.push_back(make_summa(nodes));
    summa_ptrs.push_back(owned.back().get());
  }
  for (int nodes : kDist2dNodeCounts) {
    owned.push_back(make_mm(nodes));
    mm_ptrs.push_back(owned.back().get());
  }
  const auto summa_series = scal::scalability_series(
      summa_ptrs, kMmTargetEs, {}, &context.runner);
  const auto mm_series =
      scal::scalability_series(mm_ptrs, kMmTargetEs, {}, &context.runner);

  Table table("Isospeed-efficiency scalability at E_s = " +
              Table::num(kMmTargetEs, 2));
  table.set_header({"Step", "psi (SUMMA)", "psi (row MM)"});
  for (std::size_t i = 0; i < summa_series.steps.size(); ++i) {
    const auto& step = summa_series.steps[i];
    table.add_row({"psi(" + step.from + " -> " + step.to + ")",
                   Table::fixed(step.psi, 4),
                   Table::fixed(mm_series.steps[i].psi, 4)});
    result.add_scalar("psi_summa_" + std::to_string(kDist2dNodeCounts[i]) +
                          "_to_" + std::to_string(kDist2dNodeCounts[i + 1]),
                      Value::fixed(step.psi, 4));
  }
  os << table;
  os << "cumulative psi: SUMMA = "
     << Table::fixed(summa_series.cumulative_psi(), 4)
     << ", row MM = " << Table::fixed(mm_series.cumulative_psi(), 4) << '\n';
  result.add_scalar("summa_cumulative_psi",
                    Value::fixed(summa_series.cumulative_psi(), 4));
  result.add_scalar("row_mm_cumulative_psi",
                    Value::fixed(mm_series.cumulative_psi(), 4));
  result.text = os.str();
  return result;
}

// ---- Pivoted GE: curves + psi vs the pivot-free variant -----------------

RunResult ge_pivot(const RunContext& context) {
  RunResult result;
  result.scenario = "ge_pivot_scalability";
  result.title = "Pivoted GE  Speed-efficiency with partial pivoting";
  std::ostringstream os;
  os << artifact_header(
      result.title,
      "Panel-blocked GE with partial pivoting on the GE ensembles. The "
      "pivot search, row swaps, and redundant panel reconstruction are "
      "charged overhead on top of the GE workload, so each curve sits "
      "below its pivot-free counterpart (baseline column: 4 nodes).");

  const std::vector<int> ladder{2, 4, 8};
  std::vector<std::int64_t> sizes;
  for (std::int64_t n = 50; n <= 500; n += 50) sizes.push_back(n);

  std::vector<std::string> header{"N"};
  result.columns = {"n"};
  std::vector<scal::EfficiencyCurve> curves;
  for (int nodes : ladder) {
    auto combo = make_ge_pivot(nodes);
    curves.push_back(
        scal::sample_efficiency_curve(*combo, sizes, context.runner));
    header.push_back("es_" + std::to_string(nodes) + "nodes");
    result.columns.push_back("es_" + std::to_string(nodes) + "nodes");
  }
  auto plain = make_ge(4);
  const auto plain_curve =
      scal::sample_efficiency_curve(*plain, sizes, context.runner);
  header.push_back("es_pivot_free_4nodes");
  result.columns.push_back("es_pivot_free_4nodes");

  CsvWriter csv(std::move(header));
  for (std::size_t s = 0; s < sizes.size(); ++s) {
    std::vector<std::string> row{std::to_string(sizes[s])};
    std::vector<Value> cells{Value(sizes[s])};
    for (const auto& curve : curves) {
      row.push_back(Table::fixed(curve.samples[s].speed_efficiency, 4));
      cells.push_back(Value::fixed(curve.samples[s].speed_efficiency, 4));
    }
    row.push_back(Table::fixed(plain_curve.samples[s].speed_efficiency, 4));
    cells.push_back(Value::fixed(plain_curve.samples[s].speed_efficiency, 4));
    csv.add_row(std::move(row));
    result.add_row(std::move(cells));
  }
  os << csv.str() << '\n';

  std::vector<std::unique_ptr<scal::ClusterCombination>> owned;
  std::vector<scal::Combination*> pivot_ptrs;
  std::vector<scal::Combination*> plain_ptrs;
  for (int nodes : ladder) {
    owned.push_back(make_ge_pivot(nodes));
    pivot_ptrs.push_back(owned.back().get());
  }
  for (int nodes : ladder) {
    owned.push_back(make_ge(nodes));
    plain_ptrs.push_back(owned.back().get());
  }
  const auto pivot_series = scal::scalability_series(
      pivot_ptrs, kGeTargetEs, {}, &context.runner);
  const auto plain_series = scal::scalability_series(
      plain_ptrs, kGeTargetEs, {}, &context.runner);

  Table table("Isospeed-efficiency scalability at E_s = " +
              Table::num(kGeTargetEs, 2));
  table.set_header({"Step", "psi (pivoted)", "psi (pivot-free)"});
  for (std::size_t i = 0; i < pivot_series.steps.size(); ++i) {
    const auto& step = pivot_series.steps[i];
    table.add_row({"psi(" + step.from + " -> " + step.to + ")",
                   Table::fixed(step.psi, 4),
                   Table::fixed(plain_series.steps[i].psi, 4)});
    result.add_scalar("psi_pivot_" + std::to_string(ladder[i]) + "_to_" +
                          std::to_string(ladder[i + 1]),
                      Value::fixed(step.psi, 4));
  }
  os << table;
  os << "cumulative psi: pivoted = "
     << Table::fixed(pivot_series.cumulative_psi(), 4) << ", pivot-free = "
     << Table::fixed(plain_series.cumulative_psi(), 4) << '\n';
  result.add_scalar("pivot_cumulative_psi",
                    Value::fixed(pivot_series.cumulative_psi(), 4));
  result.add_scalar("pivot_free_cumulative_psi",
                    Value::fixed(plain_series.cumulative_psi(), 4));
  result.text = os.str();
  return result;
}

// ---- SpMV: het vs homogeneous row split ---------------------------------

RunResult spmv(const RunContext& context) {
  RunResult result;
  result.scenario = "spmv_imbalance";
  result.title = "SpMV  Heterogeneous vs homogeneous row split";
  std::ostringstream os;
  os << artifact_header(
      result.title,
      "Iterated CSR GEMV (memory-bound, nnz-imbalanced) on the MM "
      "ensembles. Imbalance is the nnz-weighted dist::imbalance of the row "
      "split (1.0 = proportional work); E_s from 50 timing-only sweeps. "
      "het_beats_hom pins the heterogeneity-aware split winning both.");

  const std::vector<int> ensembles{4, 8};
  const std::vector<std::int64_t> sizes{256, 512, 1024};

  result.columns = {"nodes",  "n",      "het_imbalance", "hom_imbalance",
                    "het_es", "hom_es", "het_beats_hom"};
  Table table;
  table.set_header({"Nodes", "N", "Imbalance (het)", "Imbalance (hom)",
                    "E_s (het)", "E_s (hom)", "het beats hom"});
  bool all_rows_win = true;
  for (int nodes : ensembles) {
    using algos::SpmvDistribution;
    scal::ClusterCombination het(
        std::to_string(nodes) + " Nodes, spmv-het", mm_config(nodes),
        scal::spmv_algorithm(50, SpmvDistribution::kHeterogeneousBlock));
    scal::ClusterCombination hom(
        std::to_string(nodes) + " Nodes, spmv-hom", mm_config(nodes),
        scal::spmv_algorithm(50, SpmvDistribution::kHomogeneousBlock));
    const auto het_measured = het.measure_many(sizes, context.runner);
    const auto hom_measured = hom.measure_many(sizes, context.runner);
    const auto& speeds = het.rank_speeds();
    for (std::size_t s = 0; s < sizes.size(); ++s) {
      const double het_imb = scal::spmv_work_imbalance(
          speeds, sizes[s], SpmvDistribution::kHeterogeneousBlock);
      const double hom_imb = scal::spmv_work_imbalance(
          speeds, sizes[s], SpmvDistribution::kHomogeneousBlock);
      const double het_es = het_measured[s].speed_efficiency;
      const double hom_es = hom_measured[s].speed_efficiency;
      const bool wins = het_imb < hom_imb && het_es > hom_es;
      all_rows_win = all_rows_win && wins;
      table.add_row({std::to_string(nodes), std::to_string(sizes[s]),
                     Table::fixed(het_imb, 4), Table::fixed(hom_imb, 4),
                     Table::fixed(het_es, 4), Table::fixed(hom_es, 4),
                     wins ? "yes" : "NO"});
      result.add_row({Value(nodes), Value(sizes[s]),
                      Value::fixed(het_imb, 4), Value::fixed(hom_imb, 4),
                      Value::fixed(het_es, 4), Value::fixed(hom_es, 4),
                      Value(wins)});
    }
  }
  os << table;
  os << (all_rows_win
             ? "speed-aware row blocks win on every combination\n"
             : "NOTE: homogeneous split won somewhere above\n");
  result.add_scalar("het_beats_homogeneous_everywhere", Value(all_rows_win));
  result.text = os.str();
  return result;
}

}  // namespace

void register_dist2d_scenarios() {
  static const bool registered = [] {
    run::register_scenario(
        {"summa_mm_scalability",
         "SUMMA speed-efficiency curves and psi vs the 1D row algorithm",
         summa_mm});
    run::register_scenario(
        {"ge_pivot_scalability",
         "pivoted-GE speed-efficiency curves and psi vs pivot-free GE",
         ge_pivot});
    run::register_scenario(
        {"spmv_imbalance",
         "SpMV het vs homogeneous row split: imbalance and E_s", spmv});
    return true;
  }();
  (void)registered;
}

}  // namespace hetscale::scenarios
