// Ablation — pipelined GE (communication/computation overlap).
//
// The paper's GE broadcasts each pivot while every process waits, then
// synchronizes on a barrier. The pipelined (lookahead-1) variant fires the
// next pivot asynchronously while the current step's eliminations run.
// Same arithmetic, same W(N) — how much scalability was left on the table?
#include <iostream>

#include "hetscale/algos/ge.hpp"
#include "hetscale/scal/iso_solver.hpp"
#include "hetscale/scal/metrics.hpp"
#include "hetscale/scenarios/paper.hpp"
#include "hetscale/support/table.hpp"

int main() {
  using namespace hetscale;
  std::cout << scenarios::artifact_header(
      "Ablation  Pipelined GE (overlapped pivot distribution)",
      "Paper's synchronous GE vs lookahead-1 pipelining, E_s = 0.3.");

  Table table;
  table.set_header({"Nodes", "N (paper)", "N (pipelined)",
                    "psi step (paper)", "psi step (pipelined)"});
  double prev_c[2] = {0, 0};
  double prev_w[2] = {0, 0};
  // Same W(N) as GE; pipelining changes the timing, so the store key
  // differs from plain "ge" and the two never share measurements.
  scal::Algorithm pipelined_ge = scal::ge_algorithm();
  pipelined_ge.key = "ge:pipelined";
  algos::GeOptions pipelined_options;
  pipelined_options.pipelined = true;
  pipelined_ge.run = scal::run_with(pipelined_options, algos::run_parallel_ge);

  for (int nodes : {2, 4, 8, 16}) {
    scal::GeCombination paper("paper", scenarios::ge_config(nodes));
    scal::ClusterCombination pipelined("pipelined", scenarios::ge_config(nodes),
                                       pipelined_ge);
    const auto paper_point =
        scal::required_problem_size(paper, scenarios::kGeTargetEs);
    const auto pipe_point =
        scal::required_problem_size(pipelined, scenarios::kGeTargetEs);
    std::string psi[2] = {"-", "-"};
    const double c[2] = {paper.marked_speed(), pipelined.marked_speed()};
    const double w[2] = {paper.work(paper_point.n),
                         pipelined.work(pipe_point.n)};
    for (int v = 0; v < 2; ++v) {
      if (prev_c[v] > 0) {
        psi[v] = Table::fixed(scal::isospeed_efficiency_scalability(
                                  prev_c[v], prev_w[v], c[v], w[v]),
                              3);
      }
      prev_c[v] = c[v];
      prev_w[v] = w[v];
    }
    table.add_row({std::to_string(nodes), std::to_string(paper_point.n),
                   std::to_string(pipe_point.n), psi[0], psi[1]});
  }
  std::cout << table;
  std::cout << "(overlap + no barrier shrink the iso-efficiency problem "
               "sizes; combined with binomial collectives — see "
               "ablation_collectives — most of GE's scalability gap to MM "
               "was implementation, not algorithm)\n";
  return 0;
}
