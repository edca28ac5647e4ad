// hsbench — shared declarations of the benchmark binary.
//
// The binary links the hetscale libraries and runs one workload per
// process. It only *runs and reports*: every correctness gate (golden
// bytes, replay fidelity, analyze invariants, cold-store guard) lives in
// run.py, which reads the artifacts this binary writes to --out.
#pragma once

#include <chrono>
#include <cstdint>
#include <memory>
#include <mutex>
#include <string>
#include <utility>
#include <vector>

#include "hetscale/run/runner.hpp"
#include "hetscale/scal/combination.hpp"

namespace hsbench {

namespace scal = hetscale::scal;

using Clock = std::chrono::steady_clock;

inline double seconds_between(Clock::time_point from, Clock::time_point to) {
  return std::chrono::duration<double>(to - from).count();
}

/// CLOCK_MONOTONIC in seconds — the clock Python's time.monotonic() reads,
/// so run.py can subtract its spawn time from a timestamp printed here.
double monotonic_now();

/// CPU seconds (user + system) of the whole process, all threads.
double process_cpu_now();

/// A double as C99 hex-float text: exact, so equal text means equal bits.
std::string exact(double value);

/// In-memory spans: name, detail, start, end, parent, and the workload id
/// shared by every span of one run. Thread-safe; written out once at the
/// end of the traced run.
class SpanLog {
 public:
  explicit SpanLog(std::string workload);

  /// Open a span under `parent` (-1: a root span); returns its id.
  int open(std::string name, std::string detail, int parent);
  void close(int id);
  double seconds(int id) const;

  /// {"workload": ..., "spans": [{"id", "parent", "name", "detail",
  ///  "start_s", "end_s"}, ...]} with times relative to the log's creation.
  std::string to_json() const;

 private:
  struct Span {
    std::string name;
    std::string detail;
    int parent = -1;
    double start_s = 0.0;
    double end_s = 0.0;
  };
  std::string workload_;
  Clock::time_point origin_;
  mutable std::mutex mutex_;
  std::vector<Span> spans_;  ///< guarded by mutex_
};

/// RAII span. A null log makes it a no-op, so untraced runs pay nothing.
/// Without an explicit parent it nests under the calling thread's
/// innermost open span.
class ScopedSpan {
 public:
  static constexpr int kInherit = -2;
  ScopedSpan(SpanLog* log, std::string name, std::string detail = {},
             int parent = kInherit);
  ~ScopedSpan();
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

  int id() const { return id_; }

 private:
  SpanLog* log_;
  int id_ = -1;
  int previous_ = -1;
};

/// The analyze ladder: the paper's GE ensembles up to 16 nodes.
inline const std::vector<int> kAnalyzeNodeCounts{2, 4, 8, 16};

/// One workload's fixed parameters. jobs and sim_threads are capped at the
/// host's core count when the workload is resolved.
struct Settings {
  std::string workload;
  std::string out_dir;      ///< where artifacts are written
  std::uint64_t seed = 0;   ///< passed to RunContext; healthy workloads ignore it
  int jobs = 1;
  int sim_threads = 1;
};

/// The host's core count (at least 1); thread counts never exceed it.
int host_cores();

/// Settings for `workload` (throws on an unknown name).
Settings resolve_settings(const std::string& workload, std::uint64_t seed,
                          const std::string& out_dir);

/// How a probed configuration is rebuilt for replay: the combination
/// config plus the algorithm, under a short stable label.
struct ProbeConfig {
  std::string label;       ///< e.g. "ge@8", "lp-mm@1024"
  std::string algo;        ///< "ge", "mm", or "jacobi"
  std::int64_t sweeps = 0; ///< jacobi only
  scal::ClusterCombination::Config config;
  std::string fingerprint; ///< the MeasurementStore key of this config
};

/// One combination per probe config: builds the matching scal combination.
std::unique_ptr<scal::ClusterCombination> make_combination(
    const ProbeConfig& config);

/// The config whose fingerprint is `key`, or nullptr.
const ProbeConfig* find_probe_config(const std::string& key);

/// The config with `label`, or nullptr.
const ProbeConfig* find_probe_label(const std::string& label);

/// One (config, N) the store recorded, with the stored measurement.
struct Probe {
  const ProbeConfig* config = nullptr;
  std::int64_t n = 0;
  scal::Measurement stored;
};

/// The global MeasurementStore's entries, in key then N order. Keys that
/// no ProbeConfig matches are returned in `unknown`.
std::vector<Probe> stored_probes(std::vector<std::string>& unknown);

/// Rendered outputs of one workload run, by file name (e.g.
/// "table4_ge_scalability.csv"); run.py gates them.
using Artifacts = std::vector<std::pair<std::string, std::string>>;

/// Register the scenarios, pin the process-wide sim-thread count, and
/// clear the MeasurementStore so the run starts cold.
void prepare(const Settings& settings);

/// Run the workload once on `runner`. With a log, each Scenario::run (or
/// the analyze pipeline's stages) gets a span.
Artifacts run_workload(const Settings& settings, hetscale::run::Runner& runner,
                       SpanLog* log);

/// The traced run: spans around the scenario, each rung's solve, each
/// measure call, and each replayed simulation. Writes spans.json and
/// trace.json to settings.out_dir.
void run_traced(const Settings& settings);

/// The observer probe: the GE ladder 2..16's probes replayed one by one,
/// with or without an ambient obs::Profiler. Writes obs_observed.json or
/// obs_unobserved.json (and obs_analysis.json when observed).
void run_obs_probe(const Settings& settings, bool observed);

/// Write `content` to `dir`/`name` (throws on failure).
void write_artifact(const std::string& dir, const std::string& name,
                    const std::string& content);

}  // namespace hsbench
