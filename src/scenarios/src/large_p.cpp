#include "hetscale/scenarios/large_p.hpp"

#include <memory>
#include <sstream>
#include <string>
#include <utility>
#include <vector>

#include "hetscale/machine/parse.hpp"
#include "hetscale/run/scenario.hpp"
#include "hetscale/scal/series.hpp"
#include "hetscale/scenarios/paper.hpp"
#include "hetscale/support/error.hpp"
#include "hetscale/support/table.hpp"

namespace hetscale::scenarios {

namespace {

using run::RunContext;
using run::RunResult;
using run::Value;

/// MM's isospeed target, from the paper (Table 5).
constexpr double kLargePMmTargetEs = 0.2;

/// GE rungs share one simulated-communication budget: n(p) = kGeVolume / p,
/// so every rung costs roughly the same number of simulated messages
/// (n steps x Θ(p) collective messages each) and the ladder's wall-clock
/// stays bounded while p grows 16x.
constexpr std::int64_t kGeVolume = std::int64_t{1} << 20;

/// Jacobi scales weakly: four grid rows per rank, a fixed sweep count.
constexpr std::int64_t kJacobiRowsPerRank = 4;
constexpr std::int64_t kJacobiSweeps = 5;

std::string rung_name(const char* algo, int ranks) {
  return std::string(algo) + "@" + std::to_string(ranks);
}

RunResult large_p(const RunContext& context) {
  RunResult result;
  result.scenario = "large_p_scalability";
  result.title = "Large-p  GE/MM/Jacobi ladders at 256-4096 ranks";
  std::ostringstream os;
  os << artifact_header(
      result.title,
      "Synthetic Sunwulf-catalog ensembles (1/2 SunBlade, 1/4 V210, 1/4 "
      "server, one CPU each) under the tree collective family. MM runs the "
      "paper's isospeed ladder (required N at E_s = 0.2, psi between "
      "rungs); its root-centric distribution amortizes, so the isospeed "
      "condition holds to 4096 ranks. GE (fixed communication volume "
      "n*p = 2^20) and Jacobi (four rows per rank, 5 sweeps) record the "
      "fixed/weak-scaling operating points instead: their per-step "
      "broadcast+barrier and one-shot distribution costs grow with p "
      "faster than the workload, so E_s decays — the retrograde region "
      "the USL/BSF models in the zoo predict from contention terms.");

  const std::vector<int> rungs(std::begin(kLargePRungs),
                               std::end(kLargePRungs));

  result.columns = {"workload", "p", "n", "work_flops", "t_sim_s", "es",
                    "psi"};

  // ---- GE: fixed-communication-volume ladder ----------------------------
  std::vector<std::unique_ptr<scal::GeCombination>> ge;
  for (int p : rungs) {
    ge.push_back(std::make_unique<scal::GeCombination>(rung_name("ge", p),
                                                       large_p_config(p)));
  }
  const auto ge_points = context.runner.map(rungs.size(), [&](std::size_t i) {
    return ge[i]->measure(kGeVolume / rungs[i]);
  });

  // ---- Jacobi: weak-scaling ladder --------------------------------------
  std::vector<std::unique_ptr<scal::JacobiCombination>> jacobi;
  for (int p : rungs) {
    jacobi.push_back(std::make_unique<scal::JacobiCombination>(
        rung_name("jacobi", p), large_p_config(p), kJacobiSweeps));
  }
  const auto jacobi_points =
      context.runner.map(rungs.size(), [&](std::size_t i) {
        return jacobi[i]->measure(kJacobiRowsPerRank * rungs[i] + 2);
      });

  // ---- MM: the paper's isospeed ladder, 16-4096x the testbed ------------
  std::vector<std::unique_ptr<scal::MmCombination>> mm;
  std::vector<scal::Combination*> mm_ptrs;
  for (int p : rungs) {
    mm.push_back(std::make_unique<scal::MmCombination>(rung_name("mm", p),
                                                       large_p_config(p)));
    mm_ptrs.push_back(mm.back().get());
  }
  const auto mm_series = scal::scalability_series(
      mm_ptrs, kLargePMmTargetEs, {}, &context.runner);

  // ---- Render: one unified ladder table ---------------------------------
  Table table("Operating points (MM rows at the isospeed target)");
  table.set_header({"Workload", "p", "N", "W (flop)", "T_sim (s)", "E_s",
                    "psi"});
  const auto add_point = [&](const char* workload, int p,
                             const scal::Measurement& m, Value psi) {
    table.add_row({workload, std::to_string(p), std::to_string(m.n),
                   Table::num(m.work_flops, 0), Table::num(m.seconds, 4),
                   Table::fixed(m.speed_efficiency, 4),
                   psi.kind() == Value::Kind::kNull ? "-" : psi.text()});
    result.add_row({Value(workload), Value(p), Value(m.n),
                    Value::real(m.work_flops, 0), Value::real(m.seconds, 4),
                    Value::fixed(m.speed_efficiency, 4), std::move(psi)});
  };
  for (std::size_t i = 0; i < rungs.size(); ++i) {
    add_point("ge", rungs[i], ge_points[i], Value());
  }
  for (std::size_t i = 0; i < rungs.size(); ++i) {
    add_point("jacobi", rungs[i], jacobi_points[i], Value());
  }
  for (std::size_t i = 0; i < rungs.size(); ++i) {
    const auto& point = mm_series.points[i];
    HETSCALE_CHECK(point.found, "MM isospeed target unreachable at p=" +
                                    std::to_string(rungs[i]));
    const auto& m = mm[i]->measure(point.n);
    add_point("mm", rungs[i], m,
              i == 0 ? Value()
                     : Value::fixed(mm_series.steps[i - 1].psi, 4));
  }
  os << table;
  os << "MM cumulative psi (256 -> 4096 ranks): "
     << Table::fixed(mm_series.cumulative_psi(), 4) << '\n';

  for (std::size_t i = 0; i < rungs.size(); ++i) {
    const std::string p = std::to_string(rungs[i]);
    result.add_scalar("ge_es_p" + p,
                      Value::fixed(ge_points[i].speed_efficiency, 4));
    result.add_scalar("mm_required_n_p" + p, Value(mm_series.points[i].n));
  }
  result.add_scalar("mm_cumulative_psi",
                    Value::fixed(mm_series.cumulative_psi(), 4));
  result.text = os.str();
  return result;
}

}  // namespace

std::string large_p_description(int ranks) {
  HETSCALE_REQUIRE(ranks >= 4 && ranks % 4 == 0,
                   "a large-p rung must be a positive multiple of 4 ranks");
  return "sunbladex" + std::to_string(ranks / 2) + ":1,v210x" +
         std::to_string(ranks / 4) + ":1,serverx" + std::to_string(ranks / 4) +
         ":1";
}

machine::Cluster large_p_cluster(int ranks) {
  return machine::parse_cluster(large_p_description(ranks));
}

scal::ClusterCombination::Config large_p_config(int ranks) {
  scal::ClusterCombination::Config config;
  config.cluster = large_p_cluster(ranks);
  config.network = scal::NetworkKind::kSwitched;
  config.with_data = false;
  config.tuning = vmpi::CollectiveTuning::tree();
  return config;
}

void register_large_p_scenarios() {
  static const bool registered = [] {
    run::register_scenario(
        {"large_p_scalability",
         "GE/MM/Jacobi ladders on 256-4096-rank synthetic ensembles "
         "(tree collectives)",
         large_p});
    return true;
  }();
  (void)registered;
}

}  // namespace hetscale::scenarios
