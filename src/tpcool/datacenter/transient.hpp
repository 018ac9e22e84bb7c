#pragma once
/// \file transient.hpp
/// \brief Trace-driven transient fleet engine: play whole diurnal/bursty
///        traces through the fleet with adaptive time stepping.
///
/// The steady `FleetModel` answers "where does every job run and at what
/// setpoint"; this layer answers "what does the package temperature of
/// every server actually do over the day".  It first runs the steady fleet
/// (placement, schedules, shared rack setpoints), then integrates one
/// transient *segment* per (job, interval) with `core::ServerModel::advance`:
/// adaptive backward-Euler steps that land exactly on every phase and
/// interval edge, with the thermosyphon boundary converged within each
/// step, ending early once the field settles.  Thermal state follows the
/// stream across intervals (the history a migrating job's server
/// accumulates); a rack move that changes the grid resets the state to the
/// start temperature.
///
/// Engine contract: each stream's segments form a chain, and the chains
/// fan out through `util::parallel_map`, one task per stream.  A chain
/// walks its segments in interval order, carrying only its own end state,
/// with no barrier between intervals: a segment depends only on its
/// stream's previous end state and the steady plan.  A segment is
/// integrated directly on a `ServerModel` checked out of
/// `core::PipelinePool`, which advances the chain's state in place; a
/// fresh state is sized from that server's grid.
/// Only the steady pass goes through the `SolveCache`.  Chains that agree
/// link for link with a lower stream's chain start from the same field, so
/// they replay that stream's segments instead of integrating them (identical
/// streams do this).  Totals and peaks
/// roll up serially in interval, then stream order, so results are
/// bit-identical for any thread count (`transient_digest` certifies it,
/// like `fleet_digest`).

#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

#include "tpcool/datacenter/fleet.hpp"

namespace tpcool::datacenter {

/// Transient-engine tuning.
struct TransientEngineConfig {
  /// Target local error per adaptive step [°C], handed to
  /// `ServerModel::advance`.  Smaller = more, shorter steps.
  double tolerance_c = 0.05;
};

/// Transient outcome of one (job, interval) segment.
struct TransientJobOutcome {
  std::size_t stream = 0;
  std::size_t rack = 0;
  std::string benchmark;
  /// Max TCASE and die temperature over the segment's whole span [0, D]:
  /// the field at the phase switch counts, as does every step's end field,
  /// so a segment whose power falls peaks at its start, wherever its first
  /// step lands.
  double peak_tcase_c = 0.0;
  double peak_die_c = 0.0;
  double end_tcase_c = 0.0;    ///< TCASE at the interval boundary.
  /// Accepted transient steps (up to the step that settled the segment).
  std::uint64_t steps = 0;
  std::uint64_t rejected_steps = 0;  ///< Trials redone at a smaller dt.
  /// Transient peak TCASE exceeded the rack's limit (the trajectory-level
  /// analogue of the steady JobOutcome flag).
  bool tcase_limit_exceeded = false;
};

/// One interval of the transient timeline (same boundaries as the steady
/// fleet timeline).
struct TransientInterval {
  std::size_t interval = 0;
  double start_s = 0.0;
  double duration_s = 0.0;
  std::vector<TransientJobOutcome> jobs;  ///< In stream order.
};

/// Full transient fleet outcome.
struct TransientFleetResult {
  /// The steady fleet plan the transient ran under (placement, setpoints,
  /// energy/PUE accounting).
  FleetResult steady;
  std::vector<TransientInterval> intervals;
  double duration_s = 0.0;
  double peak_tcase_c = 0.0;             ///< Fleet-wide transient peak.
  std::uint64_t total_steps = 0;
  std::uint64_t total_rejected_steps = 0;
  /// Segments whose transient peak broke their rack's TCASE limit.
  std::size_t qos_violations = 0;
};

/// Adaptive-step transient engine over a fleet.
///
/// `run` is bit-identical for any thread count: per-stream chains are
/// fanned out with `parallel_map`, every segment value is a pure function
/// of its inputs and its initial field (the server it runs on carries no
/// state into it), a chain's state is its own, and the fleet-wide rollup
/// runs serially in interval, then stream order.
class TransientFleetEngine {
 public:
  TransientFleetEngine(FleetConfig fleet, TransientEngineConfig config);

  /// Steady fleet pass + transient segment integration, end to end.
  [[nodiscard]] TransientFleetResult run(
      const std::vector<workload::WorkloadTrace>& streams);

 private:
  FleetModel fleet_;
  TransientEngineConfig config_;
};

/// Order-sensitive FNV-1a digest over every numeric field of the transient
/// result, including the embedded steady digest — perf/'s `transient_day`
/// workload reports it, and `transient_test` compares runs across thread
/// counts and cache warmth with it.
[[nodiscard]] std::uint64_t transient_digest(const TransientFleetResult& result);

}  // namespace tpcool::datacenter
