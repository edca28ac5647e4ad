#include "hetscale/scenarios/workloads.hpp"

#include <gtest/gtest.h>

#include "hetscale/scal/iso_solver.hpp"
#include "hetscale/support/error.hpp"

namespace hetscale::scenarios {
namespace {

TEST(Workloads, KeysAreTheCliAlgoValues) {
  EXPECT_EQ(workload_key_list(),
            "ge, mm, sort, jacobi, summa, ge_pivot, spmv, or spmv-hom");
  EXPECT_EQ(zoo_keys(), (std::vector<std::string>{"ge", "mm", "jacobi",
                                                  "spmv"}));
}

TEST(Workloads, UnknownKeyListsTheTable) {
  try {
    (void)find_workload("lu");
    FAIL() << "expected PreconditionError";
  } catch (const PreconditionError& error) {
    EXPECT_NE(std::string(error.what()).find(workload_key_list()),
              std::string::npos);
  }
}

TEST(Workloads, RowsWithoutAModelFailLoudly) {
  EXPECT_THROW((void)find_workload("sort").analytic_model(),
               PreconditionError);
  EXPECT_NO_THROW((void)find_workload("spmv").analytic_model());
}

TEST(Workloads, StoreKeysMatchTheAlgorithms) {
  // The rows carry the historical fingerprints, so stores written before
  // the table existed stay valid.
  const auto jacobi = find_workload("jacobi").on_ensemble(2);
  EXPECT_EQ(jacobi->store_key().rfind("jacobi:sweeps=50", 0), 0u);
  const auto spmv = find_workload("spmv-hom").on_ensemble(2);
  EXPECT_EQ(spmv->store_key().rfind("spmv:sweeps=50,dist=hom", 0), 0u);
}

TEST(Workloads, SpmvDefaultSeriesReachesTheTwoNodeRung) {
  // spmv runs on the MM ladder at its own low target: the dense GE target
  // is out of its reach on every rung.
  const auto& spmv = find_workload("spmv");
  EXPECT_TRUE(spmv.mm_ensembles);
  const auto two_nodes = spmv.on_ensemble(2);
  const auto point = scal::required_problem_size(*two_nodes, spmv.target_es);
  ASSERT_TRUE(point.found);
  EXPECT_GE(point.achieved_es, spmv.target_es);
}

}  // namespace
}  // namespace hetscale::scenarios
