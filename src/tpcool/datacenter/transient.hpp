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
/// step.  Thermal state follows the stream across intervals (the history a
/// migrating job's server accumulates); a rack move that changes the grid
/// resets the state to the start temperature.
///
/// Engine contract.  The result is defined serially, per stream:
///  - every distinct phase p (server config, power map, operating point)
///    has a steady field S_p, converged by `ServerModel::steady_field` to
///    `kSteadyStartStopC` within `kSteadyStartIterations` iterations;
///  - a segment of phase p advances toward S_p and settles once an
///    accepted step with a converged boundary has TCASE and die max within
///    `tolerance_c` of S_p's: it then ends on S_p (a phase whose S_p hit
///    the cap settles by `advance`'s 900 s rule instead, on its own field);
///  - segment k starts from a uniform 35 °C field at the stream's start or
///    after a move to another grid, and from segment k−1's end field
///    otherwise, which is S_{k−1} when segment k−1 settled on it.
/// The schedule is only an optimization of that rule.  Every S_p is
/// converged under one `util::parallel_map`; every segment is then
/// integrated at once from S_{k−1}, as if its predecessor settles, under
/// a second one; and only segments whose predecessor did not settle run
/// again from its end field, in rounds of one `parallel_map` each.  A run
/// is a memo entry keyed by (start, phase, duration), so segments that
/// agree on all three (identical streams do) are integrated once, and a
/// speculative run never depends on timing.  Each run checks a
/// `ServerModel` out of `core::PipelinePool`, as does each steady start.
/// Only the steady pass goes through the `SolveCache`.  Memory: one field
/// per distinct phase, plus the end field of every run that did not
/// settle on its steady field.  Totals and peaks roll up serially in
/// interval, then stream order, so results are bit-identical for any
/// thread count (`transient_digest` certifies it, like `fleet_digest`).

#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

#include "tpcool/datacenter/fleet.hpp"

namespace tpcool::datacenter {

/// Most boundary iterations a phase's steady start may run.
inline constexpr int kSteadyStartIterations = 60;
/// A phase's steady start stops once successive fields agree within this
/// in every cell [°C].
inline constexpr double kSteadyStartStopC = 1e-4;

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
/// `run` is bit-identical for any thread count: steady starts and segment
/// runs are fanned out with `parallel_map`, every value is a pure function
/// of its inputs and its initial field (the server it runs on carries no
/// state into it), which runs are asked for is decided serially, and the
/// fleet-wide rollup runs serially in interval, then stream order.
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
