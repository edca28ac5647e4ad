// Scalability versus execution time (paper ref [8]) — crossing-point
// analysis: from which problem size onward does the larger system beat the
// smaller one outright, and how does that relate to ψ?
#include <iostream>

#include "hetscale/scal/exec_time.hpp"
#include "hetscale/scal/iso_solver.hpp"
#include "hetscale/scal/metrics.hpp"
#include "hetscale/scenarios/paper.hpp"
#include "hetscale/support/table.hpp"

int main() {
  using namespace hetscale;
  std::cout << scenarios::artifact_header(
      "Execution-time crossing points  (scalability vs execution time)",
      "Smallest N where the bigger GE system becomes faster than the "
      "2-node one.");

  auto base = scenarios::make_ge(2);
  Table table;
  table.set_header({"vs system", "crossing N", "T small (s)", "T big (s)",
                    "psi(2 -> big)"});
  for (int nodes : {4, 8, 16}) {
    auto big = scenarios::make_ge(nodes);
    const auto crossing =
        scal::find_time_crossing(*base, *big, 16, 1 << 14);
    const auto base_point =
        scal::required_problem_size(*base, scenarios::kGeTargetEs);
    const auto big_point =
        scal::required_problem_size(*big, scenarios::kGeTargetEs);
    const double psi = scal::isospeed_efficiency_scalability(
        base->marked_speed(), base->work(base_point.n), big->marked_speed(),
        big->work(big_point.n));
    table.add_row({big->name(),
                   crossing.exists ? std::to_string(crossing.n) : "none",
                   crossing.exists ? Table::fixed(crossing.time_a, 3) : "-",
                   crossing.exists ? Table::fixed(crossing.time_b, 3) : "-",
                   Table::fixed(psi, 3)});
  }
  std::cout << table;
  std::cout << "(below the crossing the extra nodes only add communication; "
               "scalability tells you how fast the advantage grows past it "
               "— ref [8]'s two views of the same phenomenon)\n";
  return 0;
}
