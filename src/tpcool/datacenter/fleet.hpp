#pragma once
/// \file fleet.hpp
/// \brief Trace-driven datacenter fleet simulation: N heterogeneous racks
///        (per-rack approach, chiller, QoS policy), a workload arrival
///        stream built from `workload::WorkloadTrace` phases dispatched
///        across the racks by a pluggable placement policy, and
///        per-interval fleet metrics (IT power, chiller power, PUE, QoS
///        violations, per-rack setpoints).
///
/// The paper's evaluation stops at one rack (§V: one chiller, one shared
/// water setpoint); this layer composes that rack model into a fleet.  All
/// coupled solves run through the SolveCache / parallel_map machinery on
/// pooled pipelines (core::PipelinePool), so fleet results are
/// bit-identical for any thread count and snapshot-warmable: a
/// `TPCOOL_SOLVE_CACHE_FILE` rerun replays every solve from disk
/// (0 misses) and reproduces the same bits.

#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

#include "tpcool/cooling/chiller.hpp"
#include "tpcool/cooling/rack.hpp"
#include "tpcool/core/pipelines.hpp"
#include "tpcool/datacenter/placement.hpp"
#include "tpcool/workload/trace.hpp"

namespace tpcool::datacenter {

/// One rack of the fleet: a homogeneous group of servers running one
/// approach behind one chiller (the §V rack model).
struct RackSpec {
  std::string name;                 ///< Label for tables/JSON.
  core::Approach approach = core::Approach::kProposed;
  std::size_t servers = 4;          ///< Capacity: one job per server.
  double cell_size_m = 2.0e-3;      ///< Coarse default: fleet = many solves.
  double tcase_limit_c = 85.0;
  /// Candidate supply temperatures scanned per server, descending.
  std::vector<double> supply_candidates_c{40.0, 35.0, 30.0, 25.0, 20.0,
                                          15.0};
  cooling::ChillerModel chiller;
};

/// Kinds of scheduled mid-run fleet disturbances (the fault-injection
/// scenario surface: chiller outage / derating, rack-loss failover).
enum class FleetEventKind {
  kChillerDerate,   ///< Scale the rack chiller's second-law efficiency.
  kChillerRestore,  ///< Restore the rack's chiller to its spec.
  kRackLoss,        ///< Rack capacity drops to zero (jobs fail over).
  kRackRestore,     ///< Rack capacity restored to its spec.
};

/// One scheduled disturbance.  Takes effect at the first interval whose
/// start time is >= `time_s` and stays in force until a matching restore
/// event (events are applied in time order; same-time events apply in
/// config order).  Deterministic by construction: events depend only on
/// the simulated clock, never on wall time or thread count.
struct FleetEvent {
  double time_s = 0.0;
  std::size_t rack = 0;
  FleetEventKind kind = FleetEventKind::kChillerDerate;
  /// kChillerDerate only: multiplier in (0, 1] on the chiller's
  /// second-law efficiency (0.6 = the chiller runs at 60% efficiency).
  double factor = 1.0;
};

/// Fleet construction parameters.
struct FleetConfig {
  std::vector<RackSpec> racks;
  /// Placement-policy registry name (see placement.hpp).
  std::string placement = "round-robin";
  /// UPS/PDU conversion-loss fraction for the PUE accounting.
  double distribution_loss_fraction = 0.03;
  /// Scheduled mid-run disturbances, applied by the engine in time order.
  std::vector<FleetEvent> events;
  /// Flash-crowd admission control: when true, an over-capacity interval
  /// sheds its lowest-priority excess jobs (highest QoS factor first, ties
  /// to the highest stream index) instead of throwing; shed jobs count as
  /// QoS violations and are recorded in `FleetInterval::shed_streams`.
  /// Default false preserves the historical over-capacity throw.
  bool shed_overload = false;
};

/// Outcome of one job (one stream's phase) over one interval.
struct JobOutcome {
  std::size_t stream = 0;           ///< Input stream index.
  std::string benchmark;
  double qos_factor = 1.0;
  std::size_t rack = 0;             ///< Rack the placement policy chose.
  core::ScheduleDecision decision;
  double package_power_w = 0.0;     ///< At the rack's shared setpoint.
  double max_supply_temp_c = 0.0;   ///< Highest feasible water temp.
  double die_max_c = 0.0;           ///< At the rack's shared setpoint.
  double tcase_c = 0.0;             ///< At the rack's shared setpoint.
  /// True when no supply candidate keeps TCASE within the rack limit (the
  /// server runs pinned at the coldest candidate) or the shared setpoint
  /// still leaves TCASE over the limit — the fleet-level analogue of
  /// core::TraceResult::tcase_limit_exceeded, counted as a QoS violation.
  bool tcase_limit_exceeded = false;
};

/// Per-rack rollup over one interval.
struct RackInterval {
  std::size_t jobs = 0;
  double it_power_w = 0.0;
  double headroom_c = kIdleHeadroomC;  ///< limit − hottest TCASE; idle: big.
  cooling::RackCoolingState cooling;   ///< Zeroed when the rack is idle.
};

/// Fleet-controller state stamped on the interval it acted on: the target
/// being tracked, the windowed control error that produced these biases,
/// and the applied (quantized) per-rack supply bias.  Inactive (all zeros)
/// when no controller is attached — see control.hpp.
struct FleetControlState {
  bool active = false;
  double target = 0.0;
  double error = 0.0;
  std::vector<double> rack_bias_c;   ///< Index-aligned with config racks.
};

/// One interval of the fleet timeline (a maximal span on which every
/// stream's phase is constant).
struct FleetInterval {
  std::size_t interval = 0;
  double start_s = 0.0;
  double duration_s = 0.0;
  std::vector<JobOutcome> jobs;      ///< In stream order (shed jobs absent).
  std::vector<RackInterval> racks;   ///< Index-aligned with config racks.
  double it_power_w = 0.0;
  double chiller_power_w = 0.0;      ///< Sum of rack chiller electrical.
  double pue = 1.0;                  ///< cooling::pue over this interval.
  /// Jobs with tcase_limit_exceeded, plus jobs shed by admission control.
  std::size_t qos_violations = 0;
  /// Streams shed this interval (ascending; empty unless
  /// `FleetConfig::shed_overload` fired).
  std::vector<std::size_t> shed_streams;
  FleetControlState control;         ///< Controller state (if attached).
};

/// Full fleet timeline outcome.
struct FleetResult {
  std::vector<FleetInterval> intervals;
  double duration_s = 0.0;
  double total_it_energy_j = 0.0;
  double total_chiller_energy_j = 0.0;
  double total_facility_energy_j = 0.0;  ///< IT + chiller + distribution.
  double avg_pue = 1.0;                  ///< Energy-weighted fleet PUE.
  std::size_t qos_violations = 0;        ///< Sum over intervals (incl. shed).
  std::size_t shed_jobs = 0;             ///< Jobs shed by admission control.
};

/// Validate a `FleetConfig` (nonempty racks, positive server counts and
/// cell sizes, nonempty supply-candidate lists, a registered placement
/// policy).  Throws PreconditionError on the first violation.  Shared by
/// `FleetModel` and `StreamingFleetEngine` so both fail identically.
void validate_fleet_config(const FleetConfig& config);

/// N racks, one placement policy, trace-driven.
///
/// `run` plays a set of workload streams (one `WorkloadTrace` per job
/// stream) against the fleet: the union of phase boundaries defines the
/// intervals; in each interval every still-active stream contributes one
/// job, jobs are dispatched to racks by the placement policy (in stream
/// order), each loaded rack solves the §V shared-cooling problem, and the
/// per-interval metrics aggregate up.  Unlike `RackCoordinator::plan`, a
/// server that is infeasible at every supply candidate does not throw: it
/// runs pinned at the coldest candidate and counts a QoS violation, so a
/// fleet sweep survives hot traces and reports them instead of dying.
///
/// `run` is a thin wrapper over `StreamingFleetEngine` (streaming.hpp)
/// with the `FleetResultAggregator` observer — batch and streaming runs
/// are one code path and bitwise identical by construction.
class FleetModel {
 public:
  explicit FleetModel(FleetConfig config);

  [[nodiscard]] const FleetConfig& config() const noexcept { return config_; }
  [[nodiscard]] std::size_t total_capacity() const noexcept;

  /// Simulate the streams end to end.  Throws PreconditionError when
  /// `streams` is empty or an interval's job count exceeds the fleet
  /// capacity.  Bit-identical for any thread count; all solves go through
  /// the global SolveCache on pooled pipelines.
  [[nodiscard]] FleetResult run(
      const std::vector<workload::WorkloadTrace>& streams);

 private:
  FleetConfig config_;
};

/// The fleet timeline: the sorted union of every stream's phase-boundary
/// cumulative sums (starting at 0), deduplicated with a relative epsilon.
/// Per-stream sums of nominally equal durations can differ by ULPs
/// (0.1 + 0.2 != 0.3), which `std::unique`'s exact comparison would keep
/// as sliver intervals; clusters within ~1e-12 relative collapse to their
/// largest member, so a stream whose own boundary is the smaller variant
/// is already finished (not resurrected for a sliver) and `phase_at` at
/// the representative lands in the correct phase for every stream.
[[nodiscard]] std::vector<double> fleet_interval_boundaries(
    const std::vector<workload::WorkloadTrace>& streams);

/// Order-sensitive FNV-1a digest over every numeric field of the result
/// (exact double bit patterns).  Equal digests certify bit-identical fleet
/// outcomes — the datacenter bench compares runs across thread counts with
/// this.
[[nodiscard]] std::uint64_t fleet_digest(const FleetResult& result);

/// A deterministic heterogeneous demo fleet: `racks` racks of
/// `servers_per_rack` servers cycling through the three approaches
/// (proposed, [8]+[27]+[9], [8]+[27]+[7]), with slightly staggered chiller
/// ambients so racks are not interchangeable.  Shared by the datacenter
/// bench, the example, and the tests.
[[nodiscard]] FleetConfig make_heterogeneous_fleet(std::size_t racks,
                                                   std::size_t servers_per_rack,
                                                   double cell_size_m);

}  // namespace tpcool::datacenter
