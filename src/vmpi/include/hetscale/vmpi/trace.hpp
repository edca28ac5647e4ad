// Execution tracing — where did the virtual time go?
//
// When enabled on a Machine, every compute interval, blocking send/recv
// interval, barrier, and message is recorded into an obs::SpanStore (the
// instrumentation layer's span container; fault hooks add `checkpoint` and
// `fault.rework` spans to the same store). Consumers:
//   * chrome_trace_json(): the Chrome trace-event format (load in
//     chrome://tracing or Perfetto) — one lane per rank, with message flow
//     arrows from sender to receiver;
//   * utilization_table(): a per-rank compute/communication/idle breakdown;
//   * obs::compute_time_budget(): the measured t0/To decomposition the
//     profiler reports.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "hetscale/des/scheduler.hpp"
#include "hetscale/obs/comm_matrix.hpp"
#include "hetscale/obs/critical_path.hpp"
#include "hetscale/obs/span.hpp"

namespace hetscale::vmpi {

struct TraceInterval {
  enum class Kind { kCompute, kSend, kRecv };
  int rank = 0;
  Kind kind = Kind::kCompute;
  des::SimTime begin = 0.0;
  des::SimTime end = 0.0;
  int peer = -1;       ///< other endpoint for kSend/kRecv
  int tag = 0;
  double bytes = 0.0;  ///< modeled size for kSend/kRecv
};

/// A delivered message: endpoints, tag, modeled size, departure and
/// arrival (virtual time) — the critical-path walker's shape.
using TraceMessage = obs::PathMessage;

class TraceRecorder {
 public:
  TraceRecorder();

  void record_interval(TraceInterval interval);
  void record_message(TraceMessage message);

  /// The point-to-point and compute intervals, materialized from the span
  /// store in recording order (structural spans — barriers, fault charges
  /// — are not leaf intervals and are excluded; their constituent
  /// sends/recvs are listed).
  std::vector<TraceInterval> intervals() const;
  /// The messages in recording order.
  std::vector<TraceMessage> messages() const { return messages_.messages(); }
  /// The messages filed per destination rank (what obs::critical_path
  /// walks).
  const obs::MessageLog& message_log() const { return messages_; }

  /// The underlying span store (all spans, including barrier/fault ones).
  obs::SpanStore& spans() { return spans_; }
  const obs::SpanStore& spans() const { return spans_; }

  /// Interned name id of the `barrier` span, for explicit open()/close()
  /// from coroutine code.
  int barrier_name_id() const { return barrier_id_; }

  /// The per-rank x per-rank communication matrix (obs/comm_matrix.hpp).
  /// Comm's send/recv hooks record into it whenever tracing is on.
  obs::CommMatrix& comm() { return comm_; }
  const obs::CommMatrix& comm() const { return comm_; }

  /// Group collectives run over plain tagged point-to-point sends, so the
  /// world tags cannot name them; a group marks its own lane for the span
  /// of the collective and every message the lane sends or receives is
  /// charged to that phase instead of the tag-derived one. Lanes are
  /// independent, so interleaved coroutines cannot clobber each other.
  void set_lane_phase(int lane, obs::CommPhase phase);
  void clear_lane_phase(int lane);
  obs::CommPhase lane_phase_or(int lane, obs::CommPhase fallback) const {
    const auto slot = static_cast<std::size_t>(lane);
    return slot < lane_phase_.size() && lane_phase_[slot] != kNoPhase
               ? static_cast<obs::CommPhase>(lane_phase_[slot])
               : fallback;
  }

  /// Chrome trace-event JSON ("X" duration events per rank lane, "s"/"f"
  /// flow pairs per message, plus one "C" counter row per CommMatrix cell
  /// when the matrix is non-empty). Times in microseconds of virtual time.
  /// All span names are JSON-escaped; an empty trace renders as "[]".
  std::string chrome_trace_json() const;

  /// Per-rank utilization over [0, horizon]: compute, blocked-communicating
  /// and idle fractions, rendered as an aligned text table.
  std::string utilization_table(des::SimTime horizon) const;

 private:
  static constexpr int kNoPhase = -1;

  obs::SpanStore spans_;
  obs::MessageLog messages_;
  obs::CommMatrix comm_;
  std::vector<int> lane_phase_;  ///< per lane: a CommPhase, or kNoPhase
  int compute_id_;
  int send_id_;
  int recv_id_;
  int barrier_id_;
};

}  // namespace hetscale::vmpi
