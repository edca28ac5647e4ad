// Ablation — isospeed-efficiency vs the related-work metrics (paper §2).
//
// On identical GE runs:
//  * isospeed-efficiency ψ (this paper),
//  * Jogalekar–Woodside productivity scalability under a rental-cost model,
//  * Pastor–Bosque heterogeneous efficiency (needs a sequential reference
//    run — the practical weakness the paper calls out; here the simulator
//    provides it, a real cluster often cannot).
#include <iostream>

#include "hetscale/algos/ge.hpp"
#include "hetscale/marked/suite.hpp"
#include "hetscale/scal/baselines.hpp"
#include "hetscale/scal/iso_solver.hpp"
#include "hetscale/scal/series.hpp"
#include "hetscale/scenarios/paper.hpp"
#include "hetscale/support/table.hpp"

int main() {
  using namespace hetscale;
  std::cout << scenarios::artifact_header(
      "Ablation  Metric baselines on identical GE runs",
      "isospeed-efficiency vs J-W productivity vs Pastor-Bosque.");

  std::vector<std::unique_ptr<scal::GeCombination>> combos;
  std::vector<scal::Combination*> ptrs;
  for (int nodes : {2, 4, 8, 16}) {
    combos.push_back(scenarios::make_ge(nodes));
    ptrs.push_back(combos.back().get());
  }
  const auto report = scal::scalability_series(ptrs, scenarios::kGeTargetEs);

  // Sequential reference for Pastor–Bosque: GE at the operating N on one
  // SunBlade (only feasible because this is a simulator!).
  auto sequential_time = [&](std::int64_t n) {
    machine::Cluster solo;
    solo.add_node("ref", machine::sunwulf::sunblade_spec());
    auto machine = vmpi::Machine::switched(std::move(solo));
    algos::GeOptions options;
    options.n = n;
    options.with_data = false;
    return algos::run_parallel_ge(machine, options).run.elapsed;
  };
  const double ref_speed =
      marked::node_marked_speed(machine::sunwulf::sunblade_spec());
  constexpr double kDollarsPerMflopsHour = 0.02;

  Table table;
  table.set_header({"System", "N", "E_s", "psi step", "J-W productivity",
                    "J-W step", "P-B efficiency"});
  double prev_productivity = 0.0;
  const int node_counts[] = {2, 4, 8, 16};
  for (std::size_t i = 0; i < report.points.size(); ++i) {
    const auto& point = report.points[i];
    const auto cluster = machine::sunwulf::ge_ensemble(node_counts[i]);
    const auto& m = ptrs[i]->measure(point.n);

    const double cost = scal::cluster_cost_per_s(cluster,
                                                 kDollarsPerMflopsHour);
    const double productivity = scal::productivity(m.speed_flops, cost);
    const double jw_step =
        i == 0 ? 1.0 : scal::jw_scalability(prev_productivity, productivity);

    const auto speeds = marked::rank_marked_speeds(cluster);
    const double t_seq = sequential_time(point.n);
    const double pb = scal::pastor_bosque_efficiency(t_seq, m.seconds,
                                                     speeds, ref_speed);

    table.add_row({point.system, std::to_string(point.n),
                   Table::fixed(m.speed_efficiency, 3),
                   i == 0 ? "-" : Table::fixed(report.steps[i - 1].psi, 3),
                   Table::fixed(productivity / 1e12, 3),
                   i == 0 ? "-" : Table::fixed(jw_step, 3),
                   Table::fixed(pb, 3)});
    prev_productivity = productivity;
  }
  std::cout << table;
  std::cout << "(J-W productivity is flat by construction when cost tracks "
               "marked speed — it measures price, not architecture; P-B "
               "needs the sequential run the paper argues is impractical)\n";
  return 0;
}
