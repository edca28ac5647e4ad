#include "hetscale/scal/iso_solver.hpp"

#include <gtest/gtest.h>

#include "analytic_combination.hpp"
#include "hetscale/machine/sunwulf.hpp"
#include "hetscale/support/error.hpp"

namespace hetscale::scal {
namespace {

using testing::AnalyticCombination;

class SolverTargets : public ::testing::TestWithParam<double> {};
INSTANTIATE_TEST_SUITE_P(Targets, SolverTargets,
                         ::testing::Values(0.1, 0.25, 0.3, 0.5, 0.75, 0.9));

TEST_P(SolverTargets, DirectSearchFindsExactThreshold) {
  const double target = GetParam();
  AnalyticCombination combo("synthetic", 1e8, /*knee=*/137.0);
  const auto result = required_problem_size(combo, target);
  ASSERT_TRUE(result.found);
  EXPECT_EQ(result.n, combo.required_size(target));
  EXPECT_GE(result.achieved_es, target);
}

TEST(IsoSolver, DirectSearchUsesLogarithmicallyManyRuns) {
  AnalyticCombination combo("synthetic", 1e8, 1000.0);
  const auto result = required_problem_size(combo, 0.5);
  ASSERT_TRUE(result.found);
  EXPECT_LT(combo.measure_calls(), 40);
}

TEST(IsoSolver, UnreachableTargetReportsNotFound) {
  AnalyticCombination combo("synthetic", 1e8, 1e9);  // needs n ~ 1e9
  IsoSolveOptions options;
  options.n_max = 1 << 16;
  const auto result = required_problem_size(combo, 0.9, options);
  EXPECT_FALSE(result.found);
  EXPECT_EQ(result.n, -1);
}

TEST(IsoSolver, TrendLineLandsNearTheDirectAnswer) {
  AnalyticCombination combo("synthetic", 1e8, 200.0);
  IsoSolveOptions trend;
  trend.method = IsoSolveOptions::Method::kTrendLine;
  trend.trend_n_lo = 32;
  trend.trend_n_hi = 1024;
  const auto via_trend = required_problem_size(combo, 0.5, trend);
  const auto direct = required_problem_size(combo, 0.5);
  ASSERT_TRUE(via_trend.found);
  ASSERT_TRUE(direct.found);
  // Paper-style: the trend read-off is close, then verified by measuring.
  EXPECT_NEAR(static_cast<double>(via_trend.n),
              static_cast<double>(direct.n), 0.2 * direct.n);
  EXPECT_NEAR(via_trend.achieved_es, 0.5, 0.06);
}

TEST(IsoSolver, TrendLineOnRealGeCombination) {
  ClusterCombination::Config config;
  config.cluster = machine::sunwulf::ge_ensemble(2);
  config.with_data = false;
  GeCombination combo("GE-2", std::move(config));

  IsoSolveOptions trend;
  trend.method = IsoSolveOptions::Method::kTrendLine;
  trend.trend_n_lo = 64;
  trend.trend_n_hi = 1024;
  const auto via_trend = required_problem_size(combo, 0.3, trend);
  const auto direct = required_problem_size(combo, 0.3);
  ASSERT_TRUE(via_trend.found);
  ASSERT_TRUE(direct.found);
  EXPECT_NEAR(static_cast<double>(via_trend.n),
              static_cast<double>(direct.n), 0.25 * direct.n);
}

TEST(IsoSolver, WorksOnSortCombination) {
  // A real-data combination with sub-cubic work: the solver must handle
  // its (noisier, slowly rising) efficiency curve and the p^2 size floor.
  ClusterCombination::Config config;
  config.cluster = machine::sunwulf::mm_ensemble(4);
  ClusterCombination combo("sort-4", std::move(config), sort_algorithm());
  IsoSolveOptions options;
  options.n_min = 16;  // p^2
  const auto result = required_problem_size(combo, 0.2, options);
  ASSERT_TRUE(result.found);
  EXPECT_GE(result.achieved_es, 0.2);
  // Sort's curve is data-dependent (bucket sizes), so only require the
  // solved point to be near the rising edge, not exactly minimal.
  EXPECT_LT(combo.measure(std::max<std::int64_t>(16, result.n / 2))
                .speed_efficiency,
            0.2);
}

TEST(IsoSolver, BroadcastTuningChangesTheOperatingPoint) {
  // The collectives ablation on the 4-node GE ensemble: the paper's flat
  // MPICH against the same family with binomial short broadcasts. Both
  // go through Config::tuning, so they differ in result and store key.
  const auto combination = [](vmpi::BcastAlgorithm small_bcast) {
    ClusterCombination::Config config;
    config.cluster = machine::sunwulf::ge_ensemble(4);
    config.tuning = vmpi::CollectiveTuning::legacy_flat();
    config.tuning.small_bcast = small_bcast;
    return GeCombination("GE-4", std::move(config));
  };
  GeCombination flat = combination(vmpi::BcastAlgorithm::kFlatTree);
  GeCombination binomial = combination(vmpi::BcastAlgorithm::kBinomialTree);
  EXPECT_NE(flat.store_key(), binomial.store_key());
  const auto flat_point = required_problem_size(flat, 0.3);
  const auto binomial_point = required_problem_size(binomial, 0.3);
  ASSERT_TRUE(flat_point.found);
  ASSERT_TRUE(binomial_point.found);
  EXPECT_EQ(flat_point.n, 421);  // table3's 4-node row
  EXPECT_EQ(binomial_point.n, 382);
}

TEST(IsoSolver, InvalidArgumentsRejected) {
  AnalyticCombination combo("synthetic", 1e8, 100.0);
  EXPECT_THROW(required_problem_size(combo, 0.0), PreconditionError);
  EXPECT_THROW(required_problem_size(combo, 1.0), PreconditionError);
  IsoSolveOptions bad;
  bad.n_min = 10;
  bad.n_max = 5;
  EXPECT_THROW(required_problem_size(combo, 0.5, bad), PreconditionError);
}

TEST(IsoSolver, TrendNeedsEnoughSamples) {
  AnalyticCombination combo("synthetic", 1e8, 100.0);
  IsoSolveOptions bad;
  bad.method = IsoSolveOptions::Method::kTrendLine;
  bad.trend_samples = 3;
  bad.trend_degree = 3;
  EXPECT_THROW(required_problem_size(combo, 0.5, bad), PreconditionError);
}

}  // namespace
}  // namespace hetscale::scal
