// Determinism regression suite for the paper artifacts.
//
// Two independent guarantees, pinned here so hot-path work on the event
// queue, the message plane, or the kernels cannot silently change results:
//
//   1. Job invariance — every scenario renders byte-identical output at
//      --jobs 1 and --jobs 4. The measurement store is disabled for the
//      comparison so the second run genuinely recomputes.
//   2. Golden artifacts — the CSV output matches the checked-in golden
//      files (tests/golden/), byte for byte.
//
// Plus the scheduler-level invariants: replaying one simulation yields the
// same events_processed() and the same final now().
#include <gtest/gtest.h>

#include <fstream>
#include <sstream>
#include <string>

#include "hetscale/algos/ge.hpp"
#include "hetscale/machine/sunwulf.hpp"
#include "hetscale/run/runner.hpp"
#include "hetscale/support/args.hpp"
#include "hetscale/run/scenario.hpp"
#include "hetscale/scal/combination.hpp"
#include "hetscale/scal/measure_store.hpp"
#include "hetscale/scenarios/dist2d.hpp"
#include "hetscale/scenarios/fault.hpp"
#include "hetscale/scenarios/large_p.hpp"
#include "hetscale/scenarios/paper.hpp"
#include "hetscale/scenarios/profile.hpp"
#include "hetscale/scenarios/zoo.hpp"

namespace hetscale {
namespace {

/// Run the scenarios without the cross-scenario store: job invariance must
/// hold from genuine recomputation, not from shared memoization.
class StoreDisabledScope {
 public:
  StoreDisabledScope() : was_enabled_(scal::MeasurementStore::global().enabled()) {
    scal::MeasurementStore::global().set_enabled(false);
  }
  ~StoreDisabledScope() {
    scal::MeasurementStore::global().set_enabled(was_enabled_);
  }

 private:
  bool was_enabled_;
};

std::string render_csv(const std::string& scenario_name, int jobs) {
  scenarios::register_paper_scenarios();
  scenarios::register_fault_scenarios();
  scenarios::register_profile_scenarios();
  scenarios::register_dist2d_scenarios();
  scenarios::register_zoo_scenarios();
  scenarios::register_large_p_scenarios();
  const run::Scenario* scenario = run::find_scenario(scenario_name);
  if (scenario == nullptr) ADD_FAILURE() << "unknown scenario " << scenario_name;
  run::Runner runner(jobs);
  const run::RunContext context{runner, run::OutputFormat::kCsv, 0};
  const run::RunResult result = scenario->run(context);
  std::string storage;
  return run::render(result, run::OutputFormat::kCsv, storage);
}

std::string read_golden(const std::string& scenario_name) {
  const std::string path =
      std::string(HETSCALE_TEST_GOLDEN_DIR) + "/" + scenario_name + ".csv";
  std::ifstream in(path, std::ios::binary);
  if (!in.good()) {
    ADD_FAILURE() << "missing golden file " << path;
    return {};
  }
  std::ostringstream content;
  content << in.rdbuf();
  return content.str();
}

/// Pin the process-wide --sim-threads knob for one scope. New machines
/// read global_sim_threads() at construction, so this is all a scenario
/// render needs to run partitioned.
class ScopedSimThreads {
 public:
  explicit ScopedSimThreads(int threads)
      : previous_(global_sim_threads()) {
    set_global_sim_threads(threads);
  }
  ~ScopedSimThreads() { set_global_sim_threads(previous_); }

 private:
  int previous_;
};

class ScenarioDeterminism : public ::testing::TestWithParam<const char*> {};

TEST_P(ScenarioDeterminism, JobInvariantAndMatchesGolden) {
  const std::string name = GetParam();
  StoreDisabledScope no_store;
  const std::string jobs1 = render_csv(name, 1);
  const std::string jobs4 = render_csv(name, 4);
  EXPECT_EQ(jobs1, jobs4) << name << ": artifact depends on --jobs";
  EXPECT_EQ(jobs1, read_golden(name)) << name << ": artifact drifted from golden";
}

INSTANTIATE_TEST_SUITE_P(PaperArtifacts, ScenarioDeterminism,
                         ::testing::Values("table1_marked_speed",
                                           "table2_ge_two_nodes",
                                           "table3_ge_required_rank",
                                           "table4_ge_scalability",
                                           "table5_mm_scalability",
                                           "table6_ge_predicted_rank",
                                           "table7_ge_predicted_scalability",
                                           "fig1_ge_speed_efficiency",
                                           "fig2_mm_speed_efficiency",
                                           "summa_mm_scalability",
                                           "ge_pivot_scalability",
                                           "spmv_imbalance",
                                           "model_zoo_ranking",
                                           "large_p_scalability",
                                           "fault_ge_degraded_scalability",
                                           "fault_mm_crash_restart",
                                           "fault_ge_loss_retry",
                                           "profile_ge_time_budget"));

// Sim-thread invariance: the partitioned conservative scheduler
// (--sim-threads > 1) must render every golden artifact byte-identically.
// Scenarios whose machines are ineligible for partitioning (shared bus, no
// lookahead) fall back to the sequential schedule and pass trivially —
// that fallback staying silent and exact is part of the contract too. The
// fault and profile scenarios are left out: fault hooks and profilers
// force the sequential path, so the check would be vacuous for them.
class SimThreadInvariance : public ::testing::TestWithParam<const char*> {};

TEST_P(SimThreadInvariance, PartitionedRenderMatchesGolden) {
  const std::string name = GetParam();
  StoreDisabledScope no_store;
  const std::string golden = read_golden(name);
  {
    ScopedSimThreads two(2);
    EXPECT_EQ(render_csv(name, 1), golden)
        << name << ": artifact depends on --sim-threads 2";
  }
  {
    ScopedSimThreads eight(8);
    EXPECT_EQ(render_csv(name, 1), golden)
        << name << ": artifact depends on --sim-threads 8";
    // Replication parallelism (--jobs) on top of simulation parallelism:
    // the two knobs must compose without touching the bytes.
    EXPECT_EQ(render_csv(name, 4), golden)
        << name << ": --jobs x --sim-threads interaction leaks into bytes";
  }
}

INSTANTIATE_TEST_SUITE_P(GoldenArtifacts, SimThreadInvariance,
                         ::testing::Values("table1_marked_speed",
                                           "table2_ge_two_nodes",
                                           "table3_ge_required_rank",
                                           "table4_ge_scalability",
                                           "table5_mm_scalability",
                                           "table6_ge_predicted_rank",
                                           "table7_ge_predicted_scalability",
                                           "fig1_ge_speed_efficiency",
                                           "fig2_mm_speed_efficiency",
                                           "summa_mm_scalability",
                                           "ge_pivot_scalability",
                                           "spmv_imbalance",
                                           "model_zoo_ranking",
                                           "large_p_scalability"));

TEST(SchedulerDeterminism, ReplayRepeatsEventCountAndFinalTime) {
  // One GE simulation, replayed on a fresh machine: the event count and the
  // final clock are part of the deterministic contract, not just the
  // elapsed-time artifact.
  const auto run_once = [] {
    auto machine = vmpi::Machine::switched(machine::sunwulf::ge_ensemble(4),
                                           net::NetworkParams{});
    algos::GeOptions options;
    options.n = 96;
    options.with_data = false;
    (void)algos::run_parallel_ge(machine, options);
    return std::pair{machine.scheduler().events_processed(),
                     machine.scheduler().now()};
  };
  const auto [events_a, now_a] = run_once();
  const auto [events_b, now_b] = run_once();
  EXPECT_GT(events_a, 0u);
  EXPECT_EQ(events_a, events_b);
  EXPECT_EQ(now_a, now_b);  // bit-equal, not approximately
}

}  // namespace
}  // namespace hetscale
