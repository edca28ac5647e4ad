// Multi-parameter marked performance — the paper's future-work section,
// implemented: per-node compute / memory / network sustained measures, and
// effective system speeds under different application profiles.
#include <iostream>

#include "hetscale/marked/performance.hpp"
#include "hetscale/scenarios/paper.hpp"
#include "hetscale/support/table.hpp"

int main() {
  using namespace hetscale;
  std::cout << scenarios::artifact_header(
      "Marked performance  (multi-parameter extension, paper §5)",
      "Per-node sustained compute/memory/network; effective marked speed "
      "under application profiles.");

  const machine::NodeSpec specs[] = {machine::sunwulf::server_spec(),
                                     machine::sunwulf::sunblade_spec(),
                                     machine::sunwulf::v210_spec()};

  Table table("Per-node marked performance vector");
  table.set_header({"Node", "compute (Mflops)", "memory (MB/s)",
                    "network (MB/s)", "net latency (us)"});
  for (const auto& spec : specs) {
    const auto perf = marked::node_marked_performance(spec);
    table.add_row({spec.model, scenarios::mflops_str(perf.compute_flops),
                   Table::fixed(perf.memory_Bps / 1e6, 0),
                   Table::fixed(perf.network_Bps / 1e6, 2),
                   Table::fixed(perf.network_latency_s * 1e6, 1)});
  }
  std::cout << table << '\n';

  Table eff("Effective marked speed (Mflops) by application profile");
  eff.set_header({"Node", "compute-bound", "stream-like (12 B/flop mem)",
                  "exchange-heavy (+0.5 B/flop net)"});
  marked::ApplicationProfile stream;
  stream.memory_bytes_per_flop = 12.0;
  marked::ApplicationProfile exchange = stream;
  exchange.network_bytes_per_flop = 0.5;
  for (const auto& spec : specs) {
    const auto perf = marked::node_marked_performance(spec);
    eff.add_row(
        {spec.model,
         scenarios::mflops_str(marked::effective_marked_speed(
             perf, marked::compute_bound_profile())),
         scenarios::mflops_str(marked::effective_marked_speed(perf, stream)),
         scenarios::mflops_str(
             marked::effective_marked_speed(perf, exchange))});
  }
  std::cout << eff;
  std::cout << "(the V210's memory system widens its lead on memory-bound "
               "profiles; network intensity flattens everyone — exactly why "
               "one number cannot describe a heterogeneous node)\n";
  return 0;
}
