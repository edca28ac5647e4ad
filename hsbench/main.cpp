// hsbench — run one workload, timed or traced, and print one JSON line.
//
//   hsbench run <workload> --seed N --out DIR [--setup-only]
//   hsbench trace <workload> --seed N --out DIR
//   hsbench obs 0|1 --out DIR
//   hsbench host
//
// `run` prints {"first_call_mono", "wall_s", "store_misses", "store_hits",
// "jobs", "sim_threads"} and writes the workload's rendered artifacts to
// DIR. `trace` writes spans.json and trace.json to DIR; `obs` replays the
// GE ladder 2..16 unobserved (0) or observed (1). run.py drives them all
// and owns every gate.
#include <exception>
#include <iostream>
#include <string>
#include <thread>

#include "bench.hpp"
#include "hetscale/scal/measure_store.hpp"

namespace {

using namespace hsbench;

int usage() {
  std::cerr << "usage: hsbench run|trace <workload> --seed N --out DIR "
               "[--setup-only] | hsbench obs 0|1 --out DIR | hsbench host\n";
  return 2;
}

int run_once(const Settings& settings, bool setup_only) {
  prepare(settings);
  hetscale::run::Runner runner(settings.jobs);
  const double first_call = monotonic_now();
  double wall_s = 0.0;
  Artifacts artifacts;
  if (!setup_only) {
    const auto start = Clock::now();
    artifacts = run_workload(settings, runner, nullptr);
    wall_s = seconds_between(start, Clock::now());
  }
  const auto& store = scal::MeasurementStore::global();
  for (const auto& [name, content] : artifacts) {
    write_artifact(settings.out_dir, name, content);
  }
  std::cout.precision(17);
  std::cout << "{\"first_call_mono\": " << first_call
            << ", \"wall_s\": " << wall_s
            << ", \"store_misses\": " << store.misses()
            << ", \"store_hits\": " << store.hits()
            << ", \"jobs\": " << settings.jobs
            << ", \"sim_threads\": " << settings.sim_threads << "}\n";
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  try {
    if (argc >= 2 && std::string(argv[1]) == "host") {
      std::cout << "{\"compiler\": \"" << HSBENCH_COMPILER
                << "\", \"build_type\": \"" << HSBENCH_BUILD_TYPE
                << "\", \"hardware_concurrency\": "
                << std::thread::hardware_concurrency() << "}\n";
      return 0;
    }
    if (argc < 3) return usage();
    const std::string mode = argv[1];
    const std::string target = argv[2];  // a workload, or obs's 0|1
    std::uint64_t seed = 0;
    std::string out_dir;
    bool setup_only = false;
    for (int i = 3; i < argc; ++i) {
      const std::string arg = argv[i];
      if (arg == "--seed" && i + 1 < argc) {
        seed = std::stoull(argv[++i]);
      } else if (arg == "--out" && i + 1 < argc) {
        out_dir = argv[++i];
      } else if (arg == "--setup-only") {
        setup_only = true;
      } else {
        return usage();
      }
    }
    if (out_dir.empty()) return usage();
    if (mode == "obs") {
      run_obs_probe(resolve_settings("analyze_ladder", seed, out_dir),
                    target == "1");
      return 0;
    }
    const Settings settings = resolve_settings(target, seed, out_dir);
    if (mode == "run") return run_once(settings, setup_only);
    if (mode == "trace") {
      run_traced(settings);
      return 0;
    }
    return usage();
  } catch (const std::exception& error) {
    std::cerr << "hsbench: " << error.what() << '\n';
    return 1;
  }
}
