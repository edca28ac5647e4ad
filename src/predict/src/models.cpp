#include "hetscale/predict/models.hpp"

#include <algorithm>
#include <cmath>

#include "hetscale/numeric/linsolve.hpp"
#include "hetscale/numeric/roots.hpp"
#include "hetscale/predict/theory.hpp"
#include "hetscale/support/error.hpp"

namespace hetscale::predict {

namespace {
constexpr double kMetadataBytes = 16.0;
constexpr double kBytesPerDouble = 8.0;
}  // namespace

double CommModel::t_send(double bytes) const {
  return send_alpha_s + send_beta_s_per_byte * bytes;
}

double CommModel::t_bcast(int p, double bytes) const {
  if (p <= 1) return 0.0;
  return bcast_const_s + static_cast<double>(p - 1) *
                             (bcast_alpha_s + bcast_beta_s_per_byte * bytes);
}

double CommModel::t_bcast_large(int p, double bytes) const {
  if (p <= 1) return 0.0;
  return bcast_large_const_s +
         static_cast<double>(p - 1) * bcast_large_alpha_s +
         bcast_large_beta_s_per_byte * bytes;
}

double CommModel::t_barrier(int p) const {
  if (p <= 1) return 0.0;
  return barrier_const_s + static_cast<double>(p - 1) * barrier_unit_s;
}

double OverheadModel::sequential_time(double n,
                                      const SystemModel& system) const {
  HETSCALE_REQUIRE(system.root_speed > 0.0, "root speed must be positive");
  return sequential_flops(n) / system.root_speed;
}

// ---- GE ----

double GeOverheadModel::work(double n) const {
  return numeric::ge_workload(n);
}

double GeOverheadModel::sequential_flops(double n) const {
  return n * n;  // back substitution on process 0
}

double GeOverheadModel::overhead(double n, const SystemModel& system) const {
  const int p = system.p;
  const auto& comm = system.comm;
  // Metadata broadcast.
  double to = comm.t_bcast(p, kMetadataBytes);
  // Distribution + collection: (p-1) sends each way; the messages carry
  // N(N+1) doubles in total, of which each remote rank holds ~1/p.
  const double total_bytes = n * (n + 1.0) * kBytesPerDouble;
  const double avg_bytes = total_bytes / static_cast<double>(p);
  to += 2.0 * static_cast<double>(p - 1) * comm.t_send(avg_bytes);

  // Per-step pivot-row broadcasts of 8(N-i) bytes. The runtime switches to
  // the long-message algorithm once a row exceeds the threshold, so split
  // the sum: steps with k := N-i > thr use the long law, the rest the flat
  // one. Σ of k over (a, b] is (b(b+1) - a(a+1)) / 2.
  const double pm1 = static_cast<double>(p - 1);
  const double thr_rows = std::min(
      n, std::floor(system.large_bcast_threshold_bytes / kBytesPerDouble));
  const double n_small = thr_rows;           // steps with k in [1, thr]
  const double n_large = n - thr_rows;       // steps with k in (thr, N]
  const double sum_small_bytes =
      kBytesPerDouble * thr_rows * (thr_rows + 1.0) / 2.0;
  const double sum_large_bytes =
      kBytesPerDouble * (n * (n + 1.0) - thr_rows * (thr_rows + 1.0)) / 2.0;
  to += n_small * comm.bcast_const_s +
        pm1 * (n_small * comm.bcast_alpha_s +
               comm.bcast_beta_s_per_byte * sum_small_bytes);
  to += n_large * (comm.bcast_large_const_s + pm1 * comm.bcast_large_alpha_s) +
        comm.bcast_large_beta_s_per_byte * sum_large_bytes;

  // Per-step rhs broadcast (8 bytes, always short) and barrier.
  to += n * comm.t_bcast(p, kBytesPerDouble);
  to += n * comm.t_barrier(p);
  return to;
}

// ---- MM ----

double MmOverheadModel::work(double n) const {
  return numeric::mm_workload(n);
}

double MmOverheadModel::sequential_flops(double /*n*/) const {
  return 0.0;  // perfectly parallel: Corollary 2 applies
}

double MmOverheadModel::overhead(double n, const SystemModel& system) const {
  const int p = system.p;
  const auto& comm = system.comm;
  double to = comm.t_bcast(p, kMetadataBytes);
  // A rows out and C rows back: (p-1) sends each way, ~8N²/p bytes apiece.
  const double avg_bytes =
      n * n * kBytesPerDouble / static_cast<double>(p);
  to += 2.0 * static_cast<double>(p - 1) * comm.t_send(avg_bytes);
  // B to everyone — long-message broadcast once 8N² crosses the runtime's
  // threshold (N ≈ 40 for 12 KiB), flat tree below it. The long law is an
  // affine fit whose constants can extrapolate slightly negative at very
  // small p·m, hence the clamp.
  const double b_bytes = n * n * kBytesPerDouble;
  if (b_bytes >= system.large_bcast_threshold_bytes) {
    to += std::max(0.0, comm.t_bcast_large(p, b_bytes));
  } else {
    to += comm.t_bcast(p, b_bytes);
  }
  return std::max(to, 1e-12);
}

// ---- Jacobi ----

JacobiOverheadModel::JacobiOverheadModel(std::int64_t sweeps)
    : sweeps_(sweeps) {
  HETSCALE_REQUIRE(sweeps_ >= 1, "Jacobi needs sweeps >= 1");
}

double JacobiOverheadModel::work(double n) const {
  // algos::jacobi_workload — sweeps interior updates of 6 flops over an
  // (n-2) x n band layout (kernels::jacobi_sweep_flops).
  return static_cast<double>(sweeps_) * 6.0 * (n - 2.0) * n;
}

double JacobiOverheadModel::sequential_flops(double /*n*/) const {
  return 0.0;  // band updates are fully parallel: Corollary 2 applies
}

double JacobiOverheadModel::overhead(double n,
                                     const SystemModel& system) const {
  const int p = system.p;
  if (p <= 1) return 1e-12;
  const auto& comm = system.comm;
  double to = comm.t_bcast(p, kMetadataBytes);
  // Grid bands out and back: (p-1) sends each way, ~8N²/p bytes apiece.
  const double band_bytes =
      n * n * kBytesPerDouble / static_cast<double>(p);
  to += 2.0 * static_cast<double>(p - 1) * comm.t_send(band_bytes);
  // Per sweep the pairwise ghost-row exchanges overlap across band
  // boundaries; the critical path pays one row down + one row up.
  to += static_cast<double>(sweeps_) * 2.0 *
        comm.t_send(n * kBytesPerDouble);
  return to;
}

// ---- SpMV ----

namespace {
/// The synthetic CSR matrix carries 4..16 nonzeros per row, uniform in
/// expectation — 10 on average (algos::make_synthetic_csr).
constexpr double kSpmvMeanNnzPerRow = 10.0;
/// Fraction of the dense marked rate sustained streaming CSR
/// (algos::kSpmvStreamEfficiency, mirrored to keep predict free of an
/// algos dependency).
constexpr double kSpmvStreamEfficiency = 0.35;
/// Bytes shipped per nonzero when distributing a CSR block: an 8-byte
/// value plus a packed 4-byte column index.
constexpr double kSpmvBytesPerNnz = 12.0;
}  // namespace

SpmvOverheadModel::SpmvOverheadModel(std::int64_t sweeps) : sweeps_(sweeps) {
  HETSCALE_REQUIRE(sweeps_ >= 1, "SpMV needs sweeps >= 1");
}

double SpmvOverheadModel::work(double n) const {
  return static_cast<double>(sweeps_) * 2.0 * kSpmvMeanNnzPerRow * n;
}

double SpmvOverheadModel::sequential_flops(double /*n*/) const {
  return 0.0;
}

double SpmvOverheadModel::overhead(double n,
                                   const SystemModel& system) const {
  const auto& comm = system.comm;
  const int p = system.p;
  // Memory-bound stall: the sweep flops are charged at the stream
  // efficiency, so beyond the ideal W/C the system loses W/C·(1/η - 1).
  double to = work(n) / system.marked_speed *
              (1.0 / kSpmvStreamEfficiency - 1.0);
  if (p <= 1) return std::max(to, 1e-12);
  to += comm.t_bcast(p, kMetadataBytes);
  // CSR row blocks to the (p-1) remote ranks, ~nnz/p nonzeros apiece.
  const double block_bytes =
      kSpmvBytesPerNnz * kSpmvMeanNnzPerRow * n / static_cast<double>(p);
  to += static_cast<double>(p - 1) * comm.t_send(block_bytes);
  // Initial x to everyone.
  const double x_bytes = n * kBytesPerDouble;
  if (x_bytes >= system.large_bcast_threshold_bytes) {
    to += std::max(0.0, comm.t_bcast_large(p, x_bytes));
  } else {
    to += comm.t_bcast(p, x_bytes);
  }
  // Per sweep, a (p-1)-step ring allgather of ~8N/p-byte blocks.
  to += static_cast<double>(sweeps_) * static_cast<double>(p - 1) *
        comm.t_send(x_bytes / static_cast<double>(p));
  return to;
}

// ---- Prediction pipeline ----

double predicted_time(const OverheadModel& model, const SystemModel& system,
                      double n) {
  HETSCALE_REQUIRE(system.marked_speed > 0.0,
                   "marked speed must be positive");
  HETSCALE_REQUIRE(system.p >= 1, "need at least one process");
  const double w = model.work(n);
  const double w_seq = model.sequential_flops(n);
  return (w - w_seq) / system.marked_speed +
         model.sequential_time(n, system) + model.overhead(n, system);
}

double predicted_speed_efficiency(const OverheadModel& model,
                                  const SystemModel& system, double n) {
  return model.work(n) /
         (predicted_time(model, system, n) * system.marked_speed);
}

std::int64_t predicted_required_size(const OverheadModel& model,
                                     const SystemModel& system,
                                     double target_es, double n_max) {
  HETSCALE_REQUIRE(target_es > 0.0 && target_es < 1.0,
                   "target efficiency must be in (0, 1)");
  const double n_star = numeric::bracket_and_bisect(
      [&](double n) {
        return predicted_speed_efficiency(model, system, n) - target_es;
      },
      4.0, 64.0, n_max);
  return static_cast<std::int64_t>(std::ceil(n_star));
}

double predicted_scalability(const OverheadModel& model,
                             const SystemModel& from, const SystemModel& to,
                             double target_es) {
  const auto n_from = static_cast<double>(
      predicted_required_size(model, from, target_es));
  const auto n_to =
      static_cast<double>(predicted_required_size(model, to, target_es));
  return theorem1_scalability(
      model.sequential_time(n_from, from), model.overhead(n_from, from),
      model.sequential_time(n_to, to), model.overhead(n_to, to));
}

}  // namespace hetscale::predict
