#include "hetscale/scal/series.hpp"

#include <gtest/gtest.h>

#include <memory>
#include <tuple>
#include <vector>

#include "analytic_combination.hpp"
#include "hetscale/obs/profiler.hpp"
#include "hetscale/run/runner.hpp"
#include "hetscale/scal/measure_store.hpp"
#include "hetscale/scal/metrics.hpp"
#include "hetscale/scenarios/paper.hpp"
#include "hetscale/support/error.hpp"

namespace hetscale::scal {
namespace {

using testing::AnalyticCombination;

TEST(Series, BuildsOperatingPointsAndSteps) {
  AnalyticCombination a("sys-2", 1e8, 100.0);
  AnalyticCombination b("sys-4", 2e8, 220.0);
  AnalyticCombination c("sys-8", 4e8, 500.0);
  std::vector<Combination*> combos{&a, &b, &c};
  const auto report = scalability_series(combos, 0.5);

  ASSERT_EQ(report.points.size(), 3u);
  ASSERT_EQ(report.steps.size(), 2u);
  EXPECT_EQ(report.points[0].system, "sys-2");
  EXPECT_EQ(report.points[0].n, a.required_size(0.5));
  EXPECT_EQ(report.points[1].n, b.required_size(0.5));
  EXPECT_EQ(report.steps[0].from, "sys-2");
  EXPECT_EQ(report.steps[0].to, "sys-4");
}

TEST(Series, PsiMatchesClosedForm) {
  AnalyticCombination a("sys-2", 1e8, 100.0);
  AnalyticCombination b("sys-4", 2e8, 220.0);
  std::vector<Combination*> combos{&a, &b};
  const auto report = scalability_series(combos, 0.5);
  const double expected = isospeed_efficiency_scalability(
      1e8, a.work(a.required_size(0.5)), 2e8, b.work(b.required_size(0.5)));
  EXPECT_DOUBLE_EQ(report.steps[0].psi, expected);
  // Knee grows faster than C here, so the combination is sub-ideal.
  EXPECT_LT(report.steps[0].psi, 1.0);
  EXPECT_GT(report.steps[0].psi, 0.0);
}

TEST(Series, IdealCombinationScoresPsiOfOne) {
  // Knee scaling exactly with C keeps required n equal and W' ideal? No:
  // psi = 1 requires W' = W·C'/C. With W = n^3 and knee ∝ C, n' doubles
  // when C doubles, so W' = 8W but C'/C = 2 -> psi = 1/4. Construct the
  // true ideal instead: same knee, C ratio folded into work via equal n.
  AnalyticCombination a("base", 1e8, 100.0);
  AnalyticCombination b("same", 1e8, 100.0);  // identical system
  std::vector<Combination*> combos{&a, &b};
  const auto report = scalability_series(combos, 0.4);
  EXPECT_DOUBLE_EQ(report.steps[0].psi, 1.0);
}

TEST(Series, CumulativePsiIsProductOfSteps) {
  AnalyticCombination a("s1", 1e8, 100.0);
  AnalyticCombination b("s2", 2e8, 300.0);
  AnalyticCombination c("s3", 4e8, 900.0);
  std::vector<Combination*> combos{&a, &b, &c};
  const auto report = scalability_series(combos, 0.5);
  EXPECT_NEAR(report.cumulative_psi(),
              report.steps[0].psi * report.steps[1].psi, 1e-12);
  // And the product telescopes to psi(first, last).
  EXPECT_NEAR(report.cumulative_psi(),
              isospeed_efficiency_scalability(
                  1e8, a.work(a.required_size(0.5)), 4e8,
                  c.work(c.required_size(0.5))),
              1e-12);
}

TEST(Series, UnreachableSystemMarkedNotFound) {
  AnalyticCombination a("ok", 1e8, 100.0);
  AnalyticCombination b("hopeless", 2e8, 1e12);
  std::vector<Combination*> combos{&a, &b};
  IsoSolveOptions solve;
  solve.n_max = 1 << 16;
  const auto report = scalability_series(combos, 0.5, solve);
  EXPECT_TRUE(report.points[0].found);
  EXPECT_FALSE(report.points[1].found);
  EXPECT_EQ(report.steps[0].psi, 0.0);  // no step across a missing point
}

TEST(Series, NeedsAtLeastTwoSystems) {
  AnalyticCombination a("solo", 1e8, 100.0);
  std::vector<Combination*> combos{&a};
  EXPECT_THROW(scalability_series(combos, 0.5), PreconditionError);
}

/// The simulated runs a profiled MM series over 2..8 nodes collects, as
/// (elapsed, messages) in the profiler's canonical order. The solves are
/// also handed the runner explicitly, the most direct request for waves.
std::vector<std::tuple<double, std::uint64_t>> profiled_mm_runs(int jobs) {
  std::vector<std::unique_ptr<MmCombination>> owned;
  std::vector<Combination*> ladder;
  for (int nodes : {2, 4, 8}) {
    owned.push_back(scenarios::make_mm(nodes));
    ladder.push_back(owned.back().get());
  }
  run::Runner runner(jobs);
  IsoSolveOptions solve;
  solve.runner = &runner;
  obs::Profiler profiler;
  {
    obs::ProfilerScope scope(profiler);
    (void)scalability_series(ladder, scenarios::kMmTargetEs, solve, &runner);
  }
  std::vector<std::tuple<double, std::uint64_t>> runs;
  for (const obs::RunProfile& run : profiler.sorted_runs()) {
    runs.emplace_back(run.elapsed_s, run.messages);
  }
  return runs;
}

// analyze/profile must see the same run set at any --jobs: a profiled
// solve bisects plainly even when it is handed a multi-lane runner.
TEST(Series, ProfiledRunSetDoesNotDependOnJobs) {
  auto& store = MeasurementStore::global();
  const bool was_enabled = store.enabled();
  store.set_enabled(false);  // every probe simulates, so every probe shows
  const auto sequential = profiled_mm_runs(1);
  const auto parallel = profiled_mm_runs(4);
  store.set_enabled(was_enabled);
  EXPECT_FALSE(sequential.empty());
  EXPECT_EQ(parallel, sequential);
}

}  // namespace
}  // namespace hetscale::scal
