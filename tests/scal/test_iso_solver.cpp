#include "hetscale/scal/iso_solver.hpp"

#include <gtest/gtest.h>

#include <memory>
#include <set>
#include <span>
#include <sstream>
#include <string>
#include <vector>

#include "analytic_combination.hpp"
#include "hetscale/machine/sunwulf.hpp"
#include "hetscale/numeric/roots.hpp"
#include "hetscale/run/runner.hpp"
#include "hetscale/scal/measure_store.hpp"
#include "hetscale/scal/series.hpp"
#include "hetscale/scenarios/paper.hpp"
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

// ---- predicted-path waves ------------------------------------------------

/// Plain bisection as the solver defines it: the doubling bracket from
/// n_min, then numeric::first_at_least inside it.
std::int64_t sequential_answer(AnalyticCombination& combo, double target) {
  const auto es = [&](std::int64_t n) { return combo.efficiency(n); };
  std::int64_t lo = IsoSolveOptions{}.n_min;
  std::int64_t hi = lo;
  while (es(hi) < target) {
    lo = hi;
    hi *= 2;
  }
  return numeric::first_at_least(es, target, lo, hi);
}

/// Knee 1000 puts the crossings near n = 430..2330, where E_s rises by
/// 1e-4 to 5e-4 per unit of n; the slope of 0.003 * sin(n) reaches 3e-3,
/// so E_s goes up and down many times around every crossing, and some
/// waves mispredict (their deeper probes go unused).
constexpr double kKnee = 1000.0;
constexpr double kWiggle = 0.003;

class WaveTargets : public ::testing::TestWithParam<double> {};
INSTANTIATE_TEST_SUITE_P(Targets, WaveTargets,
                         ::testing::Values(0.3, 0.45, 0.5, 0.6, 0.7));

TEST_P(WaveTargets, WavesMatchSequentialBisectionOnAWigglyCurve) {
  const double target = GetParam();
  AnalyticCombination plain("wiggly", 1e8, kKnee, kWiggle);
  const auto expected = required_problem_size(plain, target);
  ASSERT_TRUE(expected.found);
  EXPECT_EQ(expected.n, sequential_answer(plain, target));
  for (int jobs : {1, 2, 4, 8}) {
    AnalyticCombination combo("wiggly", 1e8, kKnee, kWiggle);
    run::Runner runner(jobs);
    IsoSolveOptions options;
    options.runner = &runner;
    const auto got = required_problem_size(combo, target, options);
    EXPECT_EQ(got.found, expected.found) << "jobs=" << jobs;
    EXPECT_EQ(got.n, expected.n) << "jobs=" << jobs;
    EXPECT_EQ(got.achieved_es, expected.achieved_es) << "jobs=" << jobs;
    // Waves measure every size plain bisection does, plus any mispredicted
    // deeper midpoints.
    for (std::int64_t n : plain.probed()) {
      EXPECT_TRUE(combo.probed().count(n)) << "jobs=" << jobs << " n=" << n;
    }
  }
}

TEST_P(WaveTargets, ProbeSetDoesNotDependOnTheWorkerCount) {
  const double target = GetParam();
  std::set<std::int64_t> reference;
  for (int jobs : {2, 4, 8}) {
    AnalyticCombination combo("wiggly", 1e8, kKnee, kWiggle);
    run::Runner runner(jobs);
    IsoSolveOptions options;
    options.runner = &runner;
    (void)required_problem_size(combo, target, options);
    if (reference.empty()) {
      reference = combo.probed();
    } else {
      EXPECT_EQ(combo.probed(), reference) << "jobs=" << jobs;
    }
  }
}

/// Forwarding combination counting batched measure calls, so a test can
/// tell that the waves, not plain bisection, ran.
class BatchCounting final : public Combination {
 public:
  explicit BatchCounting(std::unique_ptr<ClusterCombination> inner)
      : inner_(std::move(inner)) {}
  const std::string& name() const override { return inner_->name(); }
  double marked_speed() const override { return inner_->marked_speed(); }
  double work(std::int64_t n) const override { return inner_->work(n); }
  const Measurement& measure(std::int64_t n) override {
    return inner_->measure(n);
  }
  std::vector<Measurement> measure_many(std::span<const std::int64_t> sizes,
                                        run::Runner& runner) override {
    ++batches_;
    return inner_->measure_many(sizes, runner);
  }
  int batches() const { return batches_; }

 private:
  std::unique_ptr<ClusterCombination> inner_;
  int batches_ = 0;
};

std::string stored_entries() {
  std::ostringstream os;
  MeasurementStore::global().save(os);
  return os.str();
}

/// The GE ladder 2..8, wrapped.
std::vector<std::unique_ptr<BatchCounting>> ge_ladder() {
  std::vector<std::unique_ptr<BatchCounting>> out;
  for (int nodes : {2, 4, 8}) {
    out.push_back(std::make_unique<BatchCounting>(scenarios::make_ge(nodes)));
  }
  return out;
}

// A series on a runner and per-rung solves inside one runner batch (the
// way a benchmark re-drives a series rung by rung) pick the runner up the
// same way, so they probe exactly the same sizes — both through waves.
TEST(IsoSolver, SeriesProbesWhatPerRungSolvesInABatchProbe) {
  auto& store = MeasurementStore::global();
  const bool was_enabled = store.enabled();
  store.set_enabled(true);
  run::Runner runner(4);

  auto series_ladder = ge_ladder();
  std::vector<Combination*> ptrs;
  for (auto& rung : series_ladder) ptrs.push_back(rung.get());
  store.clear();
  (void)scalability_series(ptrs, scenarios::kGeTargetEs, {}, &runner);
  const std::string from_series = stored_entries();

  auto rung_ladder = ge_ladder();
  store.clear();
  runner.run_indexed(rung_ladder.size(), [&](std::size_t i) {
    (void)required_problem_size(*rung_ladder[i], scenarios::kGeTargetEs, {});
  });
  const std::string from_rungs = stored_entries();
  store.clear();
  store.set_enabled(was_enabled);

  EXPECT_EQ(from_series, from_rungs);
  for (std::size_t i = 0; i < series_ladder.size(); ++i) {
    EXPECT_GT(series_ladder[i]->batches(), 0) << "rung " << i;
    EXPECT_EQ(series_ladder[i]->batches(), rung_ladder[i]->batches());
  }
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
