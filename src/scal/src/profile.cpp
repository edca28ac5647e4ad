#include "hetscale/scal/profile.hpp"

#include "hetscale/scal/metrics.hpp"
#include "hetscale/support/error.hpp"

namespace hetscale::scal {

ProfiledRun profile_run(ClusterCombination& combination, std::int64_t n) {
  HETSCALE_REQUIRE(n >= 1, "problem size must be >= 1");
  obs::Profiler profiler;
  ProfiledRun out;
  {
    obs::ProfilerScope scope(profiler);
    const auto& config = combination.config();
    auto machine = make_machine(config.cluster, config.network,
                                config.net_params, config.tuning);
    const auto outcome = combination.run_once(machine, n);

    Measurement& m = out.measurement;
    m.n = n;
    m.work_flops = outcome.work_flops;
    m.seconds = outcome.seconds;
    m.speed_flops = achieved_speed(outcome.work_flops, outcome.seconds);
    m.speed_efficiency = speed_efficiency(outcome.work_flops, outcome.seconds,
                                          combination.marked_speed());
    m.overhead_s = outcome.overhead_s;

    const vmpi::TraceRecorder* tracer = machine.tracer();
    HETSCALE_CHECK(tracer != nullptr, "a profiled machine must trace");
    out.utilization = tracer->utilization_table(outcome.seconds);
    out.chrome_trace = tracer->chrome_trace_json();
  }
  const auto runs = profiler.sorted_runs();
  HETSCALE_CHECK(runs.size() == 1,
                 "profile_run expected exactly one machine run");
  out.profile = runs.front();
  return out;
}

}  // namespace hetscale::scal
