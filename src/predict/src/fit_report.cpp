#include "hetscale/predict/fit_report.hpp"

#include <algorithm>
#include <cmath>
#include <sstream>

#include "hetscale/obs/format.hpp"
#include "hetscale/support/error.hpp"

namespace hetscale::predict {

namespace {

/// In-sample error of the analytic Theorem-1 pipeline on the dataset. The
/// SystemModel is rebuilt per point from the point's own measured
/// configuration, so a ladder mixing processor counts scores correctly.
void score_analytic(const scal::FitDataset& data, const OverheadModel& model,
                    const CommModel& comm, AlgoFitStudy& study) {
  double sum_sq = 0.0;
  for (const auto& point : data.points) {
    SystemModel system;
    system.p = point.p;
    system.marked_speed = point.marked_speed;
    system.root_speed = point.root_speed;
    system.comm = comm;
    const double predicted = predicted_speed_efficiency(
        model, system, static_cast<double>(point.n));
    const double error =
        (std::isfinite(predicted) ? predicted : 0.0) -
        point.speed_efficiency;
    sum_sq += error * error;
    study.analytic_max_abs_error =
        std::max(study.analytic_max_abs_error, std::abs(error));
  }
  study.analytic_rmse =
      std::sqrt(sum_sq / static_cast<double>(data.points.size()));
}

std::string join_params(const ModelFitRow& row) {
  std::string joined;
  for (std::size_t i = 0; i < row.params.size(); ++i) {
    if (i > 0) joined += ";";
    joined += row.param_names[i] + "=" + Table::num(row.params[i], 6);
  }
  return joined;
}

}  // namespace

AlgoFitStudy build_algo_fit_study(const scal::FitDataset& data,
                                  const OverheadModel& model,
                                  const CommModel& comm,
                                  const LmOptions& options) {
  HETSCALE_REQUIRE(!data.points.empty(),
                   "fit study needs a non-empty dataset");
  AlgoFitStudy study;
  study.algo = data.algo;
  study.point_count = data.points.size();
  study.processor_counts = data.processor_counts();
  study.sizes = data.sizes();
  score_analytic(data, model, comm, study);

  for (const ScalabilityModel* law : model_zoo()) {
    ModelFitRow row;
    row.model = law->name();
    row.param_names = law->parameter_names();
    const ModelFitResult fit = fit_scalability_model(*law, data, options);
    row.params = fit.params;
    row.fit_rmse = fit.rmse;
    row.cv = leave_one_out_cv(*law, data, options);
    row.beats_analytic = row.cv.rmse < study.analytic_rmse;
    study.models.push_back(std::move(row));
  }
  // Rank by held-out error; stable sort keeps the zoo's canonical order
  // on exact ties so the report is deterministic.
  std::stable_sort(study.models.begin(), study.models.end(),
                   [](const ModelFitRow& a, const ModelFitRow& b) {
                     return a.cv.rmse < b.cv.rmse;
                   });
  for (std::size_t i = 0; i < study.models.size(); ++i) {
    study.models[i].rank = static_cast<int>(i) + 1;
  }
  return study;
}

void FitStudyReport::to_json(std::ostream& os) const {
  os << "{\n";
  os << "  \"schema\": \"" << kSchema << "\",\n";
  os << "  \"algos\": [";
  for (std::size_t a = 0; a < algos.size(); ++a) {
    const AlgoFitStudy& study = algos[a];
    os << (a == 0 ? "\n" : ",\n");
    os << "    {\n";
    os << "      \"algo\": \"" << obs::json_escape(study.algo) << "\",\n";
    os << "      \"points\": " << study.point_count << ",\n";
    os << "      \"processor_counts\": [";
    for (std::size_t i = 0; i < study.processor_counts.size(); ++i) {
      os << (i == 0 ? "" : ", ") << study.processor_counts[i];
    }
    os << "],\n";
    os << "      \"sizes\": [";
    for (std::size_t i = 0; i < study.sizes.size(); ++i) {
      os << (i == 0 ? "" : ", ") << study.sizes[i];
    }
    os << "],\n";
    os << "      \"analytic_rmse\": "
       << obs::json_number_or_null(study.analytic_rmse) << ",\n";
    os << "      \"analytic_max_abs_error\": "
       << obs::json_number_or_null(study.analytic_max_abs_error) << ",\n";
    os << "      \"models\": [";
    for (std::size_t m = 0; m < study.models.size(); ++m) {
      const ModelFitRow& row = study.models[m];
      os << (m == 0 ? "\n" : ",\n");
      os << "        {\"model\": \"" << obs::json_escape(row.model)
         << "\", \"rank\": " << row.rank << ", \"fit_rmse\": "
         << obs::json_number_or_null(row.fit_rmse) << ", \"cv_rmse\": "
         << obs::json_number_or_null(row.cv.rmse)
         << ", \"cv_max_abs_error\": "
         << obs::json_number_or_null(row.cv.max_abs_error)
         << ", \"beats_analytic\": "
         << (row.beats_analytic ? "true" : "false") << ", \"params\": {";
      for (std::size_t i = 0; i < row.params.size(); ++i) {
        os << (i == 0 ? "" : ", ") << "\""
           << obs::json_escape(row.param_names[i])
           << "\": " << obs::json_number_or_null(row.params[i]);
      }
      os << "}}";
    }
    os << "\n      ]\n";
    os << "    }";
  }
  os << "\n  ]\n";
  os << "}\n";
}

std::string FitStudyReport::to_csv() const {
  std::string csv =
      "algo,model,rank,cv_rmse,cv_max_abs_error,fit_rmse,analytic_rmse,"
      "beats_analytic,params\n";
  for (const AlgoFitStudy& study : algos) {
    for (const ModelFitRow& row : study.models) {
      csv += study.algo + "," + row.model + "," +
             std::to_string(row.rank) + "," + Table::num(row.cv.rmse, 6) +
             "," + Table::num(row.cv.max_abs_error, 6) + "," +
             Table::num(row.fit_rmse, 6) + "," +
             Table::num(study.analytic_rmse, 6) + "," +
             (row.beats_analytic ? "true" : "false") + "," +
             join_params(row) + "\n";
    }
  }
  return csv;
}

Table FitStudyReport::to_table() const {
  Table table(
      "Model zoo  cross-validated E_s prediction error vs the analytic "
      "model");
  table.set_header({"Algo", "Model", "Rank", "CV RMSE", "CV max", "Fit RMSE",
                    "Analytic RMSE", "Beats analytic", "Parameters"});
  for (const AlgoFitStudy& study : algos) {
    for (const ModelFitRow& row : study.models) {
      table.add_row({study.algo, row.model, std::to_string(row.rank),
                     Table::fixed(row.cv.rmse, 5),
                     Table::fixed(row.cv.max_abs_error, 5),
                     Table::fixed(row.fit_rmse, 5),
                     Table::fixed(study.analytic_rmse, 5),
                     row.beats_analytic ? "yes" : "no", join_params(row)});
    }
  }
  return table;
}

}  // namespace hetscale::predict
