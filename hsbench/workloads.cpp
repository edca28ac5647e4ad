// The three workloads and the configurations they probe.
#include <algorithm>
#include <sstream>
#include <stdexcept>
#include <thread>

#include "bench.hpp"
#include "hetscale/obs/analysis.hpp"
#include "hetscale/obs/profiler.hpp"
#include "hetscale/run/scenario.hpp"
#include "hetscale/scal/measure_store.hpp"
#include "hetscale/scal/series.hpp"
#include "hetscale/scenarios/large_p.hpp"
#include "hetscale/scenarios/paper.hpp"
#include "hetscale/support/args.hpp"

namespace hsbench {

namespace run = hetscale::run;
namespace obs = hetscale::obs;
namespace scenarios = hetscale::scenarios;

namespace {

/// Jacobi sweeps of the large_p_scalability ladder (its kJacobiSweeps).
/// A mismatch shows up as an unknown store key, never silently.
constexpr std::int64_t kLargePJacobiSweeps = 5;

std::string algo_key(const std::string& algo, std::int64_t sweeps) {
  return algo == "jacobi" ? "jacobi:sweeps=" + std::to_string(sweeps) : algo;
}

ProbeConfig probe_config(std::string label, std::string algo,
                         scal::ClusterCombination::Config config,
                         std::int64_t sweeps = 0) {
  ProbeConfig probe{std::move(label), std::move(algo), sweeps,
                    std::move(config), {}};
  probe.fingerprint = scal::config_fingerprint(
      algo_key(probe.algo, sweeps), probe.config.cluster, probe.config.network,
      probe.config.net_params, probe.config.with_data, probe.config.tuning);
  return probe;
}

/// Every configuration the three workloads can probe.
const std::vector<ProbeConfig>& probe_configs() {
  static const std::vector<ProbeConfig> configs = [] {
    std::vector<ProbeConfig> out;
    for (int nodes : scenarios::kPaperNodeCounts) {
      const std::string suffix = "@" + std::to_string(nodes);
      out.push_back(probe_config("ge" + suffix, "ge", scenarios::ge_config(nodes)));
      out.push_back(probe_config("mm" + suffix, "mm", scenarios::mm_config(nodes)));
    }
    for (int ranks : scenarios::kLargePRungs) {
      const std::string suffix = "@" + std::to_string(ranks);
      const auto config = scenarios::large_p_config(ranks);
      out.push_back(probe_config("lp-ge" + suffix, "ge", config));
      out.push_back(probe_config("lp-mm" + suffix, "mm", config));
      out.push_back(probe_config("lp-jacobi" + suffix, "jacobi", config,
                                 kLargePJacobiSweeps));
    }
    return out;
  }();
  return configs;
}

void run_scenario(const std::string& name, const run::RunContext& context,
                  SpanLog* log, Artifacts& artifacts) {
  const run::Scenario* scenario = run::find_scenario(name);
  if (scenario == nullptr) throw std::runtime_error("unknown scenario " + name);
  run::RunResult result;
  {
    ScopedSpan span(log, "run::Scenario::run", name);
    result = scenario->run(context);
  }
  artifacts.emplace_back(name + ".csv", result.to_csv());
}

/// The `analyze` pipeline on the GE ladder 2..16: an ambient profiler
/// around scalability_series, then obs::Analysis rendered to JSON.
void analyze_ladder(const run::RunContext& context, SpanLog* log,
                    Artifacts& artifacts) {
  obs::Profiler profiler;
  std::vector<std::unique_ptr<scal::GeCombination>> owned;
  std::vector<scal::Combination*> ladder;
  for (int nodes : kAnalyzeNodeCounts) {
    owned.push_back(scenarios::make_ge(nodes));
    ladder.push_back(owned.back().get());
  }
  scal::SeriesReport report;
  {
    ScopedSpan span(log, "scal::scalability_series", "ge@2..16");
    obs::ProfilerScope scope(profiler);
    report = scal::scalability_series(ladder, scenarios::kGeTargetEs, {},
                                      &context.runner);
  }
  std::ostringstream json;
  {
    ScopedSpan span(log, "obs::Analysis", "analyze_ladder");
    obs::AnalysisOptions options;
    options.subject = "analyze_ladder";
    obs::Analysis(profiler, options).to_json(json);
  }
  artifacts.emplace_back("analysis.json", json.str());

  // N and E_s per rung, rendered as table3 renders them.
  std::ostringstream rows;
  rows << "system,n,achieved_es\n";
  for (const auto& point : report.points) {
    rows << '"' << point.system << "\"," << point.n << ','
         << run::Value::fixed(point.achieved_es, 3).text() << '\n';
  }
  artifacts.emplace_back("ladder.csv", rows.str());
}

}  // namespace

int host_cores() {
  return std::max(1, static_cast<int>(std::thread::hardware_concurrency()));
}

Settings resolve_settings(const std::string& workload, std::uint64_t seed,
                          const std::string& out_dir) {
  Settings settings;
  settings.workload = workload;
  settings.seed = seed;
  settings.out_dir = out_dir;
  if (workload == "paper_ladder" || workload == "analyze_ladder") {
    settings.jobs = 4;
    settings.sim_threads = 1;
  } else if (workload == "large_p") {
    settings.jobs = 1;
    settings.sim_threads = 4;
  } else {
    throw std::runtime_error("unknown workload '" + workload + "'");
  }
  settings.jobs = std::min(settings.jobs, host_cores());
  settings.sim_threads = std::min(settings.sim_threads, host_cores());
  return settings;
}

std::unique_ptr<scal::ClusterCombination> make_combination(
    const ProbeConfig& config) {
  if (config.algo == "ge") {
    return std::make_unique<scal::GeCombination>(config.label, config.config);
  }
  if (config.algo == "mm") {
    return std::make_unique<scal::MmCombination>(config.label, config.config);
  }
  return std::make_unique<scal::JacobiCombination>(config.label, config.config,
                                                   config.sweeps);
}

const ProbeConfig* find_probe_config(const std::string& key) {
  for (const auto& config : probe_configs()) {
    if (config.fingerprint == key) return &config;
  }
  return nullptr;
}

const ProbeConfig* find_probe_label(const std::string& label) {
  for (const auto& config : probe_configs()) {
    if (config.label == label) return &config;
  }
  return nullptr;
}

std::vector<Probe> stored_probes(std::vector<std::string>& unknown) {
  // The store's own serialization is the one public view of its entries:
  // key \t n \t work \t seconds \t speed \t es \t overhead, %.17g doubles.
  std::stringstream saved;
  scal::MeasurementStore::global().save(saved);
  std::vector<Probe> probes;
  std::string line;
  std::getline(saved, line);  // header
  while (std::getline(saved, line)) {
    std::istringstream row(line);
    std::vector<std::string> fields;
    for (std::string field; std::getline(row, field, '\t');) {
      fields.push_back(field);
    }
    if (fields.size() != 7) throw std::runtime_error("unreadable store line");
    const std::string& key = fields[0];
    const ProbeConfig* config = find_probe_config(key);
    if (config == nullptr) {
      unknown.push_back(key.substr(0, 80));
      continue;
    }
    Probe probe;
    probe.config = config;
    probe.n = std::stoll(fields[1]);
    probe.stored = {probe.n,
                    std::stod(fields[2]),
                    std::stod(fields[3]),
                    std::stod(fields[4]),
                    std::stod(fields[5]),
                    std::stod(fields[6])};
    probes.push_back(probe);
  }
  return probes;
}

void prepare(const Settings& settings) {
  scenarios::register_paper_scenarios();
  scenarios::register_large_p_scenarios();
  hetscale::set_global_sim_threads(settings.sim_threads);
  auto& store = scal::MeasurementStore::global();
  store.set_enabled(true);
  store.clear();
}

Artifacts run_workload(const Settings& settings, run::Runner& runner,
                       SpanLog* log) {
  const run::RunContext context{runner, run::OutputFormat::kCsv, settings.seed,
                                nullptr};
  Artifacts artifacts;
  if (settings.workload == "paper_ladder") {
    run_scenario("table4_ge_scalability", context, log, artifacts);
    run_scenario("table5_mm_scalability", context, log, artifacts);
  } else if (settings.workload == "large_p") {
    run_scenario("large_p_scalability", context, log, artifacts);
  } else {
    analyze_ladder(context, log, artifacts);
  }
  return artifacts;
}

}  // namespace hsbench
