// The traced run: the per-layer view of one workload.
//
// Four passes, each on a cold MeasurementStore where it matters:
//   1. scenario — the workload exactly as the timed runs execute it, with a
//      span around each Scenario::run; its store entries are the probes.
//   2. solve    — the workload's ladders driven again through a forwarding
//      scal::Combination, with a span around each rung's solve and each
//      measure call. It must probe exactly what pass 1 probed.
//   3. replay   — every probed (config, N) re-simulated on a fresh
//      scal::make_machine, a span around each algos::run_parallel_* call
//      (which is vmpi::Machine::run plus its program set-up), reading the
//      public counters afterwards.
//   4. engine   — a fixed probe, the same for every workload: the
//      4096-rank GE rung at one and at several sim-threads.
// run_obs_probe is the observer's view, one process per mode so each has
// its own peak RSS: the GE ladder 2..16 probes replayed without, or with,
// an ambient obs::Profiler, then obs::Analysis.
// Nothing here gates: trace.json carries the raw facts and run.py judges.
#include <map>
#include <optional>
#include <sstream>
#include <stdexcept>

#include "bench.hpp"
#include "hetscale/algos/ge.hpp"
#include "hetscale/algos/jacobi.hpp"
#include "hetscale/algos/mm.hpp"
#include "hetscale/marked/suite.hpp"
#include "hetscale/obs/analysis.hpp"
#include "hetscale/obs/profiler.hpp"
#include "hetscale/run/result.hpp"
#include "hetscale/scal/measure_store.hpp"
#include "hetscale/scal/series.hpp"
#include "hetscale/scenarios/large_p.hpp"
#include "hetscale/scenarios/paper.hpp"

namespace hsbench {

namespace run = hetscale::run;
namespace obs = hetscale::obs;
namespace algos = hetscale::algos;
namespace scenarios = hetscale::scenarios;

namespace {

/// large_p_scalability's GE rungs share n * p = 2^20 (its kGeVolume).
constexpr std::int64_t kLargePGeVolume = std::int64_t{1} << 20;
/// Its Jacobi rungs take four grid rows per rank (kJacobiRowsPerRank).
constexpr std::int64_t kLargePJacobiRowsPerRank = 4;
/// Its MM isospeed target (kLargePMmTargetEs), the paper's Table 5 value.
constexpr double kLargePMmTargetEs = 0.2;
/// The rung des.seq_events_per_s.p4096 and des.parallel_speedup time.
constexpr int kEngineRanks = 4096;

/// Forwarding combination: a span around every measure call, and a count
/// of them — one rung's calls are sequential by construction.
class TracedCombination final : public scal::Combination {
 public:
  TracedCombination(scal::ClusterCombination& inner, SpanLog& log)
      : inner_(inner), log_(log) {}

  const std::string& name() const override { return inner_.name(); }
  double marked_speed() const override { return inner_.marked_speed(); }
  double work(std::int64_t n) const override { return inner_.work(n); }

  const scal::Measurement& measure(std::int64_t n) override {
    ScopedSpan span(&log_, "scal::Combination::measure",
                    inner_.name() + " n=" + std::to_string(n));
    ++calls_;
    return inner_.measure(n);
  }

  std::vector<scal::Measurement> measure_many(
      std::span<const std::int64_t> sizes, run::Runner& runner) override {
    ScopedSpan span(&log_, "scal::Combination::measure_many",
                    inner_.name() + " sizes=" + std::to_string(sizes.size()));
    ++calls_;
    return inner_.measure_many(sizes, runner);
  }

  int calls() const { return calls_; }

 private:
  scal::ClusterCombination& inner_;
  SpanLog& log_;
  int calls_ = 0;
};

struct RungSolve {
  std::string rung;
  double seconds = 0.0;
  int calls = 0;
};

/// The solve pass's bookkeeping: owned combinations and per-rung timings.
struct SolvePass {
  SpanLog& log;
  run::Runner& runner;
  std::vector<std::unique_ptr<scal::ClusterCombination>> owned;
  std::vector<std::unique_ptr<TracedCombination>> traced;
  std::vector<RungSolve> rungs;

  TracedCombination& wrap(const std::string& label) {
    const ProbeConfig* config = find_probe_label(label);
    if (config == nullptr) throw std::runtime_error("no probe config " + label);
    owned.push_back(make_combination(*config));
    traced.push_back(std::make_unique<TracedCombination>(*owned.back(), log));
    return *traced.back();
  }

  /// One scalability series, solved rung by rung as scalability_series
  /// does (one runner batch, one iso-solve per rung), a span per rung.
  void series(const std::string& prefix, const std::vector<int>& sizes,
              double target, const scal::IsoSolveOptions& solve) {
    std::vector<TracedCombination*> ladder;
    for (int size : sizes) ladder.push_back(&wrap(prefix + std::to_string(size)));
    ScopedSpan series_span(&log, "scal::scalability_series", prefix + "*");
    const int parent = series_span.id();
    std::vector<int> span_ids(ladder.size(), -1);
    runner.run_indexed(ladder.size(), [&](std::size_t i) {
      ScopedSpan span(&log, "scal::required_problem_size", ladder[i]->name(),
                      parent);
      span_ids[i] = span.id();
      (void)scal::required_problem_size(*ladder[i], target, solve);
    });
    for (std::size_t i = 0; i < ladder.size(); ++i) {
      rungs.push_back({ladder[i]->name(), log.seconds(span_ids[i]),
                       ladder[i]->calls()});
    }
  }

  /// Independent single measurements as one runner batch, a span each.
  void points(const std::string& prefix, const std::vector<int>& sizes,
              std::int64_t (*size_to_n)(int)) {
    std::vector<TracedCombination*> combos;
    for (int size : sizes) combos.push_back(&wrap(prefix + std::to_string(size)));
    ScopedSpan batch_span(&log, "run::Runner::map", prefix + "*");
    const int parent = batch_span.id();
    runner.run_indexed(combos.size(), [&](std::size_t i) {
      ScopedSpan span(&log, "measure_point", combos[i]->name(), parent);
      (void)combos[i]->measure(size_to_n(sizes[i]));
    });
  }
};

/// Drive the workload's ladders through TracedCombination — the same
/// solves, batches, and targets the registered scenarios use.
void solve_pass(const Settings& settings, SolvePass& pass) {
  const std::vector<int>& paper = scenarios::kPaperNodeCounts;
  if (settings.workload == "paper_ladder") {
    pass.series("ge@", paper, scenarios::kGeTargetEs, {});  // table4
    pass.series("mm@", paper, scenarios::kMmTargetEs, {});  // table5
    pass.series("ge@", paper, scenarios::kGeTargetEs, {});  // table5's GE
  } else if (settings.workload == "large_p") {
    const std::vector<int> rungs(std::begin(scenarios::kLargePRungs),
                                 std::end(scenarios::kLargePRungs));
    pass.points("lp-ge@", rungs,
                [](int p) { return kLargePGeVolume / p; });
    pass.points("lp-jacobi@", rungs,
                [](int p) { return kLargePJacobiRowsPerRank * p + 2; });
    scal::IsoSolveOptions solve;
    solve.runner = &pass.runner;
    pass.series("lp-mm@", rungs, kLargePMmTargetEs, solve);
  } else {
    obs::Profiler profiler;
    {
      obs::ProfilerScope scope(profiler);
      pass.series("ge@", kAnalyzeNodeCounts, scenarios::kGeTargetEs, {});
    }
    ScopedSpan span(&pass.log, "obs::Analysis", "analyze_ladder");
    std::ostringstream json;
    obs::AnalysisOptions options;
    options.subject = "analyze_ladder";
    obs::Analysis(profiler, options).to_json(json);
  }
}

/// One re-simulation of a probe and the counters read after it.
struct Replay {
  std::string label;
  std::int64_t n = 0;
  int sim_threads = 1;
  double elapsed = 0.0;
  std::uint64_t messages = 0;
  double bytes = 0.0;
  double wire = 0.0;
  double contention = 0.0;
  std::uint64_t events = 0;
  double host_s = 0.0;
  double cpu_s = 0.0;
  std::string stored;  ///< exact stored Measurement::seconds, when known
};

/// Per-rank marked speeds, as ClusterCombination computes them. The marked
/// suite runs simulations of its own, so callers take them outside any
/// ProfilerScope.
std::vector<double> speeds_of(const ProbeConfig& probe) {
  return hetscale::marked::rank_marked_speeds(probe.config.cluster);
}

Replay replay(const ProbeConfig& probe, const std::vector<double>& speeds,
              std::int64_t n, int sim_threads, SpanLog& log) {
  const auto& config = probe.config;
  auto machine = scal::make_machine(config.cluster, config.network,
                                    config.net_params, config.tuning);
  machine.set_sim_threads(sim_threads);

  Replay out;
  out.label = probe.label;
  out.n = n;
  out.sim_threads = sim_threads;
  hetscale::vmpi::RunResult result;
  const double cpu_start = process_cpu_now();
  const auto start = Clock::now();
  {
    ScopedSpan span(&log, "algos::run_parallel_" + probe.algo,
                    probe.label + " n=" + std::to_string(n) +
                        " sim_threads=" + std::to_string(sim_threads));
    if (probe.algo == "ge") {
      algos::GeOptions options;
      options.n = n;
      options.with_data = config.with_data;
      options.speeds = speeds;
      result = algos::run_parallel_ge(machine, options).run;
    } else if (probe.algo == "mm") {
      algos::MmOptions options;
      options.n = n;
      options.with_data = config.with_data;
      options.speeds = speeds;
      result = algos::run_parallel_mm(machine, options).run;
    } else {
      algos::JacobiOptions options;
      options.n = n;
      options.sweeps = probe.sweeps;
      options.with_data = config.with_data;
      options.speeds = speeds;
      result = algos::run_parallel_jacobi(machine, options).run;
    }
  }
  out.host_s = seconds_between(start, Clock::now());
  out.cpu_s = process_cpu_now() - cpu_start;
  out.elapsed = result.elapsed;
  out.messages = result.network.messages;
  out.bytes = result.network.bytes;
  out.wire = result.network.wire_seconds;
  out.contention = result.network.contention_seconds;
  out.events = machine.events_processed();
  return out;
}

void write_replay(std::ostream& os, const Replay& r) {
  os << "{\"label\": \"" << r.label << "\", \"n\": " << r.n
     << ", \"sim_threads\": " << r.sim_threads << ", \"elapsed\": \""
     << exact(r.elapsed) << "\", \"messages\": " << r.messages
     << ", \"bytes\": \"" << exact(r.bytes) << "\", \"wire\": \""
     << exact(r.wire) << "\", \"contention\": \"" << exact(r.contention)
     << "\", \"events\": " << r.events << ", \"host_s\": " << r.host_s
     << ", \"cpu_s\": " << r.cpu_s << ", \"stored\": \"" << r.stored << "\"}";
}

void write_replays(std::ostream& os, const char* key,
                   const std::vector<Replay>& replays) {
  os << ",\n\"" << key << "\": [";
  for (std::size_t i = 0; i < replays.size(); ++i) {
    os << (i == 0 ? "\n" : ",\n");
    write_replay(os, replays[i]);
  }
  os << "]";
}

void write_strings(std::ostream& os, const char* key,
                   const std::vector<std::string>& values) {
  os << ",\n\"" << key << "\": [";
  for (std::size_t i = 0; i < values.size(); ++i) {
    if (i > 0) os << ", ";
    run::write_json_string(os, values[i]);
  }
  os << "]";
}

/// "label n exact-seconds" per probe — how two passes are compared.
std::vector<std::string> probe_signatures(const std::vector<Probe>& probes) {
  std::vector<std::string> out;
  for (const auto& probe : probes) {
    out.push_back(probe.config->label + " " + std::to_string(probe.n) + " " +
                  exact(probe.stored.seconds));
  }
  return out;
}

}  // namespace

void run_traced(const Settings& settings) {
  SpanLog log(settings.workload);
  auto& store = scal::MeasurementStore::global();
  std::ostringstream os;
  os.precision(17);

  // ---- 1. scenario pass ------------------------------------------------
  prepare(settings);
  run::Runner runner(settings.jobs);
  double scenario_wall = 0.0;
  {
    ScopedSpan span(&log, "pass.scenario", settings.workload);
    const auto start = Clock::now();
    const Artifacts artifacts = run_workload(settings, runner, &log);
    scenario_wall = seconds_between(start, Clock::now());
    for (const auto& [name, content] : artifacts) {
      write_artifact(settings.out_dir, name, content);
    }
  }
  const std::uint64_t misses = store.misses();
  const std::uint64_t hits = store.hits();
  std::vector<std::string> unknown;
  const std::vector<Probe> probes = stored_probes(unknown);

  // ---- 2. solve pass ---------------------------------------------------
  store.clear();
  SolvePass pass{log, runner, {}, {}, {}};
  double solve_wall = 0.0;
  {
    ScopedSpan span(&log, "pass.solve", settings.workload);
    const auto start = Clock::now();
    solve_pass(settings, pass);
    solve_wall = seconds_between(start, Clock::now());
  }
  std::vector<std::string> solve_unknown;
  const auto solve_signatures = probe_signatures(stored_probes(solve_unknown));

  // ---- 3. replay pass --------------------------------------------------
  std::vector<Replay> replays;
  {
    ScopedSpan span(&log, "pass.replay", settings.workload);
    std::map<const ProbeConfig*, std::vector<double>> speeds;
    for (const auto& probe : probes) {
      auto [it, fresh] = speeds.try_emplace(probe.config);
      if (fresh) it->second = speeds_of(*probe.config);
      Replay r = replay(*probe.config, it->second, probe.n,
                        settings.sim_threads, log);
      r.stored = exact(probe.stored.seconds);
      replays.push_back(std::move(r));
    }
  }

  // ---- 4. engine pass --------------------------------------------------
  std::vector<Replay> engine;
  {
    ScopedSpan span(&log, "pass.engine", settings.workload);
    const int threads = std::min(4, host_cores());
    const ProbeConfig* big =
        find_probe_label("lp-ge@" + std::to_string(kEngineRanks));
    const std::int64_t big_n = kLargePGeVolume / kEngineRanks;
    const auto big_speeds = speeds_of(*big);
    engine.push_back(replay(*big, big_speeds, big_n, 1, log));
    engine.push_back(replay(*big, big_speeds, big_n, threads, log));
  }

  os << "{\"workload\": \"" << settings.workload << "\""
     << ", \"jobs\": " << settings.jobs
     << ", \"sim_threads\": " << settings.sim_threads
     << ", \"scenario_wall_s\": " << scenario_wall
     << ", \"solve_wall_s\": " << solve_wall
     << ", \"store_misses\": " << misses << ", \"store_hits\": " << hits;
  unknown.insert(unknown.end(), solve_unknown.begin(), solve_unknown.end());
  write_strings(os, "unknown_keys", unknown);
  write_strings(os, "scenario_probes", probe_signatures(probes));
  write_strings(os, "solve_probes", solve_signatures);
  os << ",\n\"rungs\": [";
  for (std::size_t i = 0; i < pass.rungs.size(); ++i) {
    const auto& rung = pass.rungs[i];
    os << (i == 0 ? "\n" : ",\n") << "{\"rung\": \"" << rung.rung
       << "\", \"seconds\": " << rung.seconds << ", \"calls\": " << rung.calls
       << "}";
  }
  os << "]";
  write_replays(os, "replays", replays);
  write_replays(os, "engine", engine);
  os << "\n}\n";
  write_artifact(settings.out_dir, "trace.json", os.str());
  write_artifact(settings.out_dir, "spans.json", log.to_json());
}

void run_obs_probe(const Settings& settings, bool observed) {
  SpanLog log("obs-probe");
  prepare(settings);
  run::Runner runner(settings.jobs);
  // The analyze ladder's probes, found cold and unobserved.
  {
    SolvePass finder{log, runner, {}, {}, {}};
    finder.series("ge@", kAnalyzeNodeCounts, scenarios::kGeTargetEs, {});
  }
  std::vector<std::string> unknown;
  const auto probes = stored_probes(unknown);
  std::vector<std::vector<double>> speeds;
  for (const auto& probe : probes) speeds.push_back(speeds_of(*probe.config));

  // One profiler per replay, so each RunProfile pairs with its machine.
  obs::Profiler all;
  std::vector<Replay> replays;
  std::vector<obs::RunProfile> profiles;
  for (std::size_t i = 0; i < probes.size(); ++i) {
    obs::Profiler one;
    {
      std::optional<obs::ProfilerScope> scope;
      if (observed) scope.emplace(one);
      replays.push_back(
          replay(*probes[i].config, speeds[i], probes[i].n, 1, log));
    }
    for (const auto& profile : one.sorted_runs()) {
      profiles.push_back(profile);
      all.add_run(profile);
    }
  }
  double analysis_s = 0.0;
  if (observed) {
    std::ostringstream json;
    const auto start = Clock::now();
    obs::AnalysisOptions options;
    options.subject = "analyze_ladder";
    obs::Analysis(all, options).to_json(json);
    analysis_s = seconds_between(start, Clock::now());
    write_artifact(settings.out_dir, "obs_analysis.json", json.str());
  }

  std::ostringstream os;
  os.precision(17);
  os << "{\"observed\": " << (observed ? "true" : "false")
     << ", \"analysis_s\": " << analysis_s << ", \"runs\": " << all.runs();
  write_strings(os, "unknown_keys", unknown);
  write_replays(os, "replays", replays);
  // The observer's on-wire view of each run, for the net identity check.
  os << ",\n\"profiles\": [";
  for (std::size_t i = 0; i < profiles.size(); ++i) {
    const auto& p = profiles[i];
    os << (i == 0 ? "\n" : ",\n") << "{\"elapsed\": \"" << exact(p.elapsed_s)
       << "\", \"messages\": " << p.messages << ", \"bytes\": \""
       << exact(p.bytes) << "\", \"wire\": \"" << exact(p.wire_s)
       << "\", \"contention\": \"" << exact(p.contention_s) << "\"}";
  }
  os << "]\n}\n";
  write_artifact(settings.out_dir,
                 observed ? "obs_observed.json" : "obs_unobserved.json",
                 os.str());
}

}  // namespace hsbench
