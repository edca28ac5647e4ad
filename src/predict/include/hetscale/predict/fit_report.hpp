// The fit study report — the model zoo scored against the paper's
// analytic prediction.
//
// For one algorithm's FitDataset the study (a) fits every zoo model and
// cross-validates it leave-one-point-out, (b) scores the *unfitted*
// analytic Theorem-1 pipeline (the caller's OverheadModel + a probed
// CommModel)
// on the same points, and (c) ranks the models by cross-validated RMSE.
// A model "beats analytic" when its held-out error is below the analytic
// model's in-sample error — a deliberately generous bar for the analytic
// side, which never saw the data.
//
// Three renderings of the same record: to_json() emits the documented
// schema "hetscale.predict.fit/v1" (docs/architecture.md), to_csv() the
// flat ranking table, to_table() the human view. All are pure functions
// of deterministically-gathered data, so output is byte-identical across
// --jobs and kernel pins.
#pragma once

#include <cstdint>
#include <ostream>
#include <string>
#include <vector>

#include "hetscale/predict/models.hpp"
#include "hetscale/predict/zoo.hpp"
#include "hetscale/support/table.hpp"

namespace hetscale::predict {

/// One fitted model's scorecard on one algorithm's dataset.
struct ModelFitRow {
  std::string model;
  std::vector<std::string> param_names;
  std::vector<double> params;
  double fit_rmse = 0.0;        ///< in-sample RMSE of the full fit
  CrossValidation cv;           ///< leave-one-out held-out errors
  int rank = 0;                 ///< 1 = best cv rmse for the algorithm
  bool beats_analytic = false;  ///< cv.rmse < analytic_rmse
};

/// The zoo ranked on one algorithm, with the analytic yardstick.
struct AlgoFitStudy {
  std::string algo;
  std::size_t point_count = 0;
  std::vector<int> processor_counts;
  std::vector<std::int64_t> sizes;
  double analytic_rmse = 0.0;          ///< Theorem-1 pipeline, in-sample
  double analytic_max_abs_error = 0.0;
  std::vector<ModelFitRow> models;     ///< sorted by rank
};

/// Fit + cross-validate every zoo model on `data` and score the analytic
/// `model` (its sweep counts must match the dataset's) with a SystemModel
/// built per point from the point's own p / marked_speed / root_speed and
/// the probed `comm`. Ties in cv rmse keep the zoo's canonical model order.
AlgoFitStudy build_algo_fit_study(const scal::FitDataset& data,
                                  const OverheadModel& model,
                                  const CommModel& comm,
                                  const LmOptions& options = {});

/// The full report: one AlgoFitStudy per requested algorithm.
struct FitStudyReport {
  static constexpr const char* kSchema = "hetscale.predict.fit/v1";

  std::vector<AlgoFitStudy> algos;

  void to_json(std::ostream& os) const;
  std::string to_csv() const;
  Table to_table() const;
};

}  // namespace hetscale::predict
