// The iso-solver: "the required matrix size to obtain a specified
// speed-efficiency" (paper §4.4, Fig. 1 / Table 3).
//
// Two methods, as in §3.5:
//   * kDirectSearch — measure the combination directly; since E_s(N) is
//     non-decreasing in N over the usable range, a doubling bracket plus
//     integer bisection finds the smallest N with E_s(N) >= target in
//     O(log N) simulated runs. The bracket is sequential (each doubling
//     costs several times the last); with a runner, the bisection runs in
//     predicted-path waves of concurrent probes (see IsoSolveOptions).
//   * kTrendLine — the paper's method: sample E_s at a handful of sizes,
//     fit a polynomial trend line, read the target crossing off the trend,
//     then verify by measuring at the read-off size (the "light gray dot"
//     of Fig. 1).
#pragma once

#include <cstdint>

#include "hetscale/scal/combination.hpp"

namespace hetscale::scal {

struct IsoSolveOptions {
  enum class Method { kDirectSearch, kTrendLine };
  Method method = Method::kDirectSearch;

  std::int64_t n_min = 4;             ///< search floor
  std::int64_t n_max = 1 << 22;       ///< search ceiling (fail beyond)

  // kTrendLine parameters:
  std::size_t trend_degree = 3;
  std::size_t trend_samples = 10;     ///< geometric ladder of sample sizes
  std::int64_t trend_n_lo = 32;       ///< sampling window
  std::int64_t trend_n_hi = 2048;

  /// Optional worker pool (not owned); when unset, the Runner whose batch
  /// the calling thread is draining (run::Runner::current()) is used, so
  /// the per-rung solves of a parallel scalability_series get one too.
  /// With more than one lane, the trend-line ladder is sampled as one
  /// batch (options.runner only), and direct-search bisection runs in
  /// *predicted-path waves*: interpolate E_s linearly between the bracket
  /// ends to predict the crossing, measure bisection's next four midpoints
  /// along the predicted path as one batch, then replay the real decisions
  /// on the measured values. The found N and E_s equal plain bisection's on
  /// any E_s(n); the probe set depends on the combination and target,
  /// never on jobs(). An ambient obs::Profiler keeps the bisection plain:
  /// observed runs hold every span and message in memory, and serial
  /// probing keeps a profiled run set the same at any worker count.
  run::Runner* runner = nullptr;
};

struct IsoSolveResult {
  bool found = false;
  std::int64_t n = -1;        ///< required problem size
  double achieved_es = 0.0;   ///< measured E_s at n (the verification run)
  double target_es = 0.0;
};

/// Smallest problem size at which the combination achieves the target
/// speed-efficiency. found == false if the target is unreachable below
/// options.n_max (the combination is then *unscalable* at that efficiency).
IsoSolveResult required_problem_size(Combination& combination,
                                     double target_es,
                                     const IsoSolveOptions& options = {});

}  // namespace hetscale::scal
