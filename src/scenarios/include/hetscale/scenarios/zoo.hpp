// The model-zoo fit study as a scenario and a CLI building block.
//
// gather_zoo_dataset measures one algorithm's (combination, p, n) -> E_s
// points over its workload row's ensembles (scenarios/workloads.hpp,
// ladder {2, 4, 8}) at the row's zoo sizes; build_fit_report fits and
// cross-validates the predict/ model zoo on those points against the
// analytic Theorem-1 pipeline. The `model_zoo_ranking` scenario pins the
// resulting per-algorithm ranking as a golden artifact (timing-only,
// jobs-invariant, memoized through the MeasurementStore).
#pragma once

#include <string>
#include <vector>

#include "hetscale/predict/fit_report.hpp"
#include "hetscale/run/runner.hpp"
#include "hetscale/scal/fit_study.hpp"

namespace hetscale::scenarios {

/// Measure the fit dataset for one of zoo_keys() (throws
/// PreconditionError for anything else). A null runner measures
/// sequentially — same points, same bytes.
scal::FitDataset gather_zoo_dataset(const std::string& algo,
                                    run::Runner* runner);

/// Gather + fit + rank for each requested algorithm, in the given order.
predict::FitStudyReport build_fit_report(
    const std::vector<std::string>& algos, run::Runner* runner);

/// Register the `model_zoo_ranking` scenario. Idempotent.
void register_zoo_scenarios();

}  // namespace hetscale::scenarios
