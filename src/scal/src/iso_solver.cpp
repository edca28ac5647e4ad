#include "hetscale/scal/iso_solver.hpp"

#include <algorithm>
#include <cmath>
#include <vector>

#include "hetscale/numeric/roots.hpp"
#include "hetscale/obs/profiler.hpp"
#include "hetscale/run/runner.hpp"
#include "hetscale/support/error.hpp"
#include "hetscale/support/log.hpp"

namespace hetscale::scal {

namespace {

/// Bisection midpoints a wave measures at once. Four fills a 4-lane host;
/// the rule, and so the probe set, does not depend on the runner's width.
constexpr std::size_t kWaveWidth = 4;

/// One end of a bisection bracket with its measured E_s.
struct Bound {
  std::int64_t n = 0;
  double es = 0.0;
};

/// Smallest n in (lo.n, hi.n] with E_s(n) >= target, by integer bisection
/// from the bracket E_s(lo) < target <= E_s(hi). Returns that end of the
/// final bracket, so its E_s comes along without another measure call.
///
/// With a runner the bisection runs in predicted-path waves: interpolate
/// E_s linearly between the bracket ends to predict the crossing, walk
/// bisection's next kWaveWidth midpoints along the path that prediction
/// implies, measure them as one measure_many batch, then replay the real
/// decisions on the measured values for as long as each next midpoint is
/// among them. A wrong prediction only wastes the wave's deeper probes; the
/// decisions — and so the returned n and E_s — are those of plain bisection
/// on *any* E_s(n), non-monotone wiggles included. Without a runner each
/// wave is the single next midpoint, which is plain bisection.
Bound bisect_crossing(Combination& combination, double target, Bound lo,
                      Bound hi, run::Runner* runner) {
  const std::size_t width = runner != nullptr ? kWaveWidth : 1;
  std::vector<std::int64_t> wave;
  while (hi.n - lo.n > 1) {
    const double predicted =
        static_cast<double>(lo.n) +
        (target - lo.es) / (hi.es - lo.es) * static_cast<double>(hi.n - lo.n);
    wave.clear();
    for (std::int64_t a = lo.n, b = hi.n; wave.size() < width && b - a > 1;) {
      const std::int64_t mid = a + (b - a) / 2;
      wave.push_back(mid);
      if (predicted <= static_cast<double>(mid)) {
        b = mid;  // predicted E_s(mid) >= target
      } else {
        a = mid;
      }
    }
    std::vector<Measurement> measured;
    if (runner != nullptr) {
      measured = combination.measure_many(wave, *runner);
    } else {
      measured.push_back(combination.measure(wave.front()));
    }
    // Replay bisection's decisions against the wave's measurements.
    for (;;) {
      const std::int64_t mid = lo.n + (hi.n - lo.n) / 2;
      const auto at = std::find(wave.begin(), wave.end(), mid);
      if (hi.n - lo.n <= 1 || at == wave.end()) break;
      const auto index = static_cast<std::size_t>(at - wave.begin());
      const Bound probe{mid, measured[index].speed_efficiency};
      if (probe.es >= target) {
        hi = probe;
      } else {
        lo = probe;
      }
    }
  }
  return hi;
}

IsoSolveResult direct_search(Combination& combination, double target_es,
                             const IsoSolveOptions& options) {
  IsoSolveResult result;
  result.target_es = target_es;

  // Doubling bracket: find hi with E_s(hi) >= target. Sequential even under
  // a runner — each doubling costs several times the previous one, so
  // measuring doublings past the crossing would waste more than it hides.
  Bound lo{options.n_min, 0.0};
  Bound hi{options.n_min, combination.measure(options.n_min).speed_efficiency};
  while (hi.es < target_es) {
    if (hi.n >= options.n_max) return result;  // unreachable: not found
    lo = hi;
    hi.n = std::min(options.n_max, hi.n * 2);
    hi.es = combination.measure(hi.n).speed_efficiency;
  }

  // Waves need lanes to run on, and an unobserved solve: a profiled run
  // holds every span and message in memory (hundreds of MB for one large
  // GE probe), and serial bisection keeps an observed run set the same at
  // any --jobs.
  run::Runner* runner =
      options.runner != nullptr ? options.runner : run::Runner::current();
  if (runner != nullptr && (runner->jobs() <= 1 || obs::current() != nullptr)) {
    runner = nullptr;
  }
  if (lo.n < hi.n) hi = bisect_crossing(combination, target_es, lo, hi, runner);
  result.found = true;
  result.n = hi.n;
  result.achieved_es = hi.es;
  return result;
}

IsoSolveResult trend_line(Combination& combination, double target_es,
                          const IsoSolveOptions& options) {
  HETSCALE_REQUIRE(options.trend_samples >= options.trend_degree + 1,
                   "need more trend samples than polynomial coefficients");
  HETSCALE_REQUIRE(options.trend_n_lo >= 1 &&
                       options.trend_n_hi > options.trend_n_lo,
                   "invalid trend sampling window");
  IsoSolveResult result;
  result.target_es = target_es;

  // Geometric ladder of sample sizes across the window.
  std::vector<std::int64_t> sizes;
  const double ratio =
      std::pow(static_cast<double>(options.trend_n_hi) /
                   static_cast<double>(options.trend_n_lo),
               1.0 / static_cast<double>(options.trend_samples - 1));
  double x = static_cast<double>(options.trend_n_lo);
  for (std::size_t i = 0; i < options.trend_samples; ++i) {
    const auto n = static_cast<std::int64_t>(std::llround(x));
    if (sizes.empty() || n > sizes.back()) sizes.push_back(n);
    x *= ratio;
  }
  const auto curve =
      options.runner != nullptr
          ? sample_efficiency_curve(combination, sizes, *options.runner)
          : sample_efficiency_curve(combination, sizes);
  const auto trend = fit_trend(curve, options.trend_degree);

  // Read the crossing off the trend line, allowing mild extrapolation.
  const double lo = static_cast<double>(sizes.front());
  const double hi = static_cast<double>(sizes.back());
  double n_cross = -1.0;
  try {
    n_cross = numeric::bracket_and_bisect(
        [&](double n) { return trend(n) - target_es; }, lo, hi, 4.0 * hi);
  } catch (const NumericError&) {
    HETSCALE_WARN("trend line never crosses target E_s "
                  << target_es << " for " << combination.name());
    return result;  // not found
  }

  // The paper's verification step: measure at the read-off size.
  const auto n = static_cast<std::int64_t>(std::llround(n_cross));
  result.found = true;
  result.n = std::max<std::int64_t>(n, 1);
  result.achieved_es = combination.measure(result.n).speed_efficiency;
  return result;
}

}  // namespace

IsoSolveResult required_problem_size(Combination& combination,
                                     double target_es,
                                     const IsoSolveOptions& options) {
  HETSCALE_REQUIRE(target_es > 0.0 && target_es < 1.0,
                   "target speed-efficiency must be in (0, 1)");
  HETSCALE_REQUIRE(options.n_min >= 1 && options.n_max > options.n_min,
                   "invalid search range");
  if (options.method == IsoSolveOptions::Method::kDirectSearch) {
    return direct_search(combination, target_es, options);
  }
  return trend_line(combination, target_es, options);
}

}  // namespace hetscale::scal
