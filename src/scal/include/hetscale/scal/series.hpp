// Scalability series over a ladder of system sizes (paper Tables 3–5).
//
// Given combinations of the same algorithm on successively larger systems
// and a target speed-efficiency, compute for each system the required
// problem size, and between consecutive systems the isospeed-efficiency
// scalability ψ — exactly how Tables 3/4 (GE) and 5 (MM) are built.
#pragma once

#include <span>
#include <string>
#include <vector>

#include "hetscale/scal/combination.hpp"
#include "hetscale/scal/iso_solver.hpp"

namespace hetscale::scal {

/// One system's row of Table 3: the operating point at the target E_s.
struct OperatingPoint {
  std::string system;
  double marked_speed = 0.0;  ///< C (flop/s)
  std::int64_t n = -1;        ///< required problem size
  double work = 0.0;          ///< W(N)
  double achieved_es = 0.0;
  bool found = false;
};

/// One step of Table 4/5: ψ between consecutive systems.
struct ScalabilityStep {
  std::string from;
  std::string to;
  double psi = 0.0;
};

struct SeriesReport {
  double target_es = 0.0;
  std::vector<OperatingPoint> points;
  std::vector<ScalabilityStep> steps;  ///< points.size() - 1 entries

  /// Cumulative scalability from the first system to the last found one:
  /// the product of the step ψ values (== ψ(C_first, C_last)).
  double cumulative_psi() const;
};

/// Build the series. Combinations must be ordered by increasing system size.
/// Systems where the target cannot be reached get found == false and no
/// outgoing step.
///
/// With a runner (jobs > 1), the per-system iso-solves run as one batch —
/// they are independent simulations — and the report is assembled from the
/// batch in ladder order, so it is bit-identical to the sequential build.
/// Each solve picks the runner up (run::Runner::current()) and submits its
/// bisection waves as nested batches. Lanes freed by the cheap rungs help
/// drain them — pool lanes and the calling thread alike, once it has run
/// out of rungs — so the slowest rung stops being a serial critical path.
SeriesReport scalability_series(std::span<Combination* const> combinations,
                                double target_es,
                                const IsoSolveOptions& solve = {},
                                run::Runner* runner = nullptr);

}  // namespace hetscale::scal
