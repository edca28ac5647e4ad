// Scenarios for the 2D-distribution layer and its new workloads:
//   * summa_mm_scalability  — SUMMA on a speed-balanced 2D grid vs row MM
//   * ge_pivot_scalability  — panel-blocked pivoted GE vs pivot-free GE
//   * spmv_imbalance        — het vs homogeneous row split on sparse GEMV
// Registered alongside the paper scenarios; every artifact is timing-only,
// jobs-invariant, and golden-pinned (tests/golden/).
#pragma once

namespace hetscale::scenarios {

/// Register the 2D-distribution scenarios with the global registry.
/// Idempotent.
void register_dist2d_scenarios();

}  // namespace hetscale::scenarios
