// The scenario registry — named, rerunnable experiments.
//
// A Scenario wraps one paper artifact (a table, a figure, an ablation) as
// a function from a RunContext (worker pool + output format) to a
// RunResult. Scenarios register under a stable name and
// `hetscale_cli run <name>` resolves through this registry, so every
// artifact has exactly one implementation and a one-command regeneration
// path with `--jobs N` parallelism.
#pragma once

#include <cstdint>
#include <functional>
#include <string>
#include <vector>

#include "hetscale/run/result.hpp"
#include "hetscale/run/runner.hpp"

namespace hetscale::obs {
class Profiler;
}  // namespace hetscale::obs

namespace hetscale::run {

enum class OutputFormat { kText, kCsv, kJson };

struct RunContext {
  Runner& runner;
  OutputFormat format = OutputFormat::kText;
  /// Experiment seed (--seed / HETSCALE_SEED). Fault scenarios expand it
  /// into a FaultPlan; healthy scenarios are free to ignore it.
  std::uint64_t seed = 0;
  /// Profiler collecting this run's instrumentation, or null when
  /// profiling is off. Scenarios normally need not touch it — machines
  /// publish to the ambient obs::current() automatically — but it is here
  /// so a scenario can attach extra context if it wants to.
  obs::Profiler* profiler = nullptr;
};

struct Scenario {
  std::string name;     ///< registry key, e.g. "table3_ge_required_rank"
  std::string summary;  ///< one line for listings
  std::function<RunResult(const RunContext&)> run;
};

/// Register a scenario. Throws PreconditionError on a duplicate name or a
/// missing run function.
void register_scenario(Scenario scenario);

/// The scenario registered under `name`, or nullptr.
const Scenario* find_scenario(const std::string& name);

/// All registered scenarios, sorted by name.
std::vector<const Scenario*> all_scenarios();

/// Parse "text" / "csv" / "json" (throws PreconditionError otherwise).
OutputFormat parse_format(const std::string& text);

/// Render `result` in `format` (the scenario's prepared text, its CSV
/// table, or its JSON record).
const std::string& render(const RunResult& result, OutputFormat format,
                          std::string& storage);

}  // namespace hetscale::run
