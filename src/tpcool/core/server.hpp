#pragma once
/// \file server.hpp
/// \brief The complete server model: Xeon E5 floorplan + package power model
///        + 3D thermal grid + two-phase thermosyphon, with the coupled
///        steady-state solve used by every experiment.

#include <cstddef>
#include <cstdint>
#include <vector>

#include "tpcool/floorplan/xeon_e5.hpp"
#include "tpcool/power/package_power.hpp"
#include "tpcool/thermal/grid.hpp"
#include "tpcool/thermal/metrics.hpp"
#include "tpcool/thermosyphon/thermosyphon.hpp"
#include "tpcool/workload/profiler.hpp"

namespace tpcool::core {

/// Server construction parameters.
struct ServerConfig {
  thermal::PackageStackConfig stack;            ///< Package + grid geometry.
  thermosyphon::ThermosyphonDesign design;      ///< Cooling-device design.
  thermosyphon::OperatingPoint operating_point; ///< Water valve + setpoint.
  int coupling_iterations = 4;     ///< Thermosyphon<->thermal fixed point.
  /// Warm-start each coupled solve from the previous temperature field.
  /// Consecutive solves in a sweep (benchmarks, QoS levels, bisection on
  /// the operating point) differ by a few degrees, so the CG iteration
  /// count collapses; converged results are identical within the solver
  /// tolerance regardless of the start.  The approach servers
  /// (`server_config_for`) turn it off, so their solves are pure functions
  /// of their inputs and can be cached.
  bool reuse_thermal_state = true;
};

/// Result of one coupled steady-state simulation.
struct SimulationResult {
  thermal::ThermalMetrics die;        ///< Metrics over the die region.
  thermal::ThermalMetrics package;    ///< Metrics over the IHS (package top).
  double tcase_c = 0.0;               ///< Centre-of-spreader temperature.
  double total_power_w = 0.0;
  power::PackagePowerBreakdown power;
  thermosyphon::ThermosyphonState syphon;
  util::Grid2D<double> die_field_c;       ///< Die-layer temperature map.
  util::Grid2D<double> package_field_c;   ///< IHS-layer temperature map.
  std::vector<int> active_cores;
};

/// Case temperature and die maximum of one temperature field.
struct PackageProbe {
  double tcase_c = 0.0;    ///< Centre-of-spreader temperature.
  double die_max_c = 0.0;  ///< Hottest die cell.
};

/// What `ServerModel::advance` reports about one constant-power segment.
struct AdvanceResult {
  /// Max TCASE and die temperature over [0, D]: over the start field and
  /// the end field of every accepted step.
  double peak_tcase_c = 0.0;
  double peak_die_c = 0.0;
  double end_tcase_c = 0.0;  ///< TCASE of the end field.
  std::uint64_t steps = 0;           ///< Accepted steps.
  std::uint64_t rejected_steps = 0;  ///< Trials redone at a smaller dt.
  /// Boundary-loop convergence, summed over every trial: the iterations
  /// run, and the trials that used all of them without meeting the exit.
  std::uint64_t boundary_iterations = 0;
  std::uint64_t boundary_cap_hits = 0;
  /// When the segment settled, or its whole duration if it did not [s].
  double settled_s = 0.0;
  /// Whether it settled.  With a target field it then ended on the target.
  bool settled = false;
};

/// A coupled steady field and how the boundary loop that found it ended.
struct SteadyField {
  std::vector<double> t;        ///< Every cell [°C].
  int iterations = 0;           ///< Boundary iterations run.
  /// Largest cell change between the last two iterates [°C] (0 after one).
  double final_change_c = 0.0;
  /// The change fell to the stop before the iteration cap.
  bool converged = false;
};

/// A server with a thermosyphon on its package.
///
/// The model owns all substrate objects; `simulate()` runs the coupled
/// fixed point: power map -> thermosyphon HTC map -> thermal solve ->
/// evaporator heat map -> thermosyphon ... until the boundary stabilizes.
/// `advance()` is the transient counterpart: it integrates a field under
/// the power map `load()` put on the model, converging the same boundary
/// exchange (`set_evaporator_heat`, `evaporator_heat`) within every step.
class ServerModel {
 public:
  explicit ServerModel(ServerConfig config);

  // The power model and profiler point back into this object, so a move
  // would leave them referencing the source. Construct it in place (the
  // PipelinePool holds each in a std::unique_ptr); a function returning a
  // prvalue would still work via guaranteed copy elision.
  ServerModel(const ServerModel&) = delete;
  ServerModel& operator=(const ServerModel&) = delete;
  ServerModel(ServerModel&&) = delete;
  ServerModel& operator=(ServerModel&&) = delete;

  [[nodiscard]] const floorplan::Floorplan& floorplan() const {
    return floorplan_;
  }
  [[nodiscard]] const power::PackagePowerModel& power_model() const {
    return power_model_;
  }
  [[nodiscard]] const workload::Profiler& profiler() const {
    return profiler_;
  }
  [[nodiscard]] const thermosyphon::ThermosyphonDesign& design() const {
    return config_.design;
  }
  [[nodiscard]] const thermosyphon::OperatingPoint& operating_point() const {
    return config_.operating_point;
  }
  [[nodiscard]] const thermal::StackModel& stack() const {
    return thermal_.stack();
  }
  [[nodiscard]] const ServerConfig& config() const { return config_; }

  /// Change the runtime-adjustable coolant parameters (§VI-C).
  void set_operating_point(const thermosyphon::OperatingPoint& op);

  /// Run the coupled steady solve for a benchmark in a configuration mapped
  /// onto `active_cores` (ids from a MappingPolicy), idle cores at
  /// `idle_state`.  The result's `active_cores` echo the caller's order.
  [[nodiscard]] SimulationResult simulate(
      const workload::BenchmarkProfile& bench,
      const workload::Configuration& config_pt,
      const std::vector<int>& active_cores, power::CState idle_state);

  /// Coupled solve for an explicit per-unit power assignment (used by the
  /// motivation experiments and tests).
  [[nodiscard]] SimulationResult simulate_powers(
      const floorplan::UnitPowers& powers);

  /// Put the power map of `bench` in `config_pt` on `active_cores` (idle
  /// cores at `idle_state`) on the thermal model, and return its breakdown.
  power::PackagePowerBreakdown load(const workload::BenchmarkProfile& bench,
                                    const workload::Configuration& config_pt,
                                    const std::vector<int>& active_cores,
                                    power::CState idle_state);

  /// Solve the thermosyphon for evaporator heat map `heat` at the current
  /// operating point and install its HTC and fluid-temperature maps as the
  /// thermal model's top boundary.  Returns the thermosyphon state.
  thermosyphon::ThermosyphonState set_evaporator_heat(
      const util::Grid2D<double>& heat);

  /// Per-cell heat that field `t` gives the evaporator, with the handful
  /// of fringe cells that can run slightly negative at low loads clamped
  /// to 0.
  [[nodiscard]] util::Grid2D<double> evaporator_heat(
      const std::vector<double>& t) const;

  /// TCASE and die maximum of field `t`.
  [[nodiscard]] PackageProbe probe(const std::vector<double>& t) const;

  /// Converge the coupled steady field of the power map `load()` installed,
  /// at the current operating point: the fixed point `simulate()` runs
  /// (plain substitution from a cold start, inexact inner solves), but
  /// stopped once successive fields agree to `stop_c` [°C > 0] in every
  /// cell, or after `max_iterations` [≥ 1].  Records no `solve` span: it
  /// answers no cached question.
  [[nodiscard]] SteadyField steady_field(int max_iterations, double stop_c);

  /// Advance field `t` in place by `duration_s` [s] of the power map
  /// `load()` installed, at the current operating point.  Backward-Euler
  /// steps whose length a `thermal::StepController` adapts from the
  /// step-doubling error estimate at local error `tolerance_c` [°C>0],
  /// landing exactly on `duration_s`.  Within each trial step the
  /// thermosyphon boundary is converged against the step's own end field
  /// (an under-relaxed fixed point, the transient analogue of the steady
  /// solve's), so the estimate sees the segment's dynamics rather than
  /// boundary lag.  The first step is sized from the field's curvature
  /// (`ThermalModel::second_derivative_norm`), and the segment ends early
  /// on the field it settles on once a largest-length step leaves it
  /// settled.  With a `target` (the phase's converged steady field, the
  /// same size as `t`) a step settles instead once it is accepted, its
  /// boundary loop converged, and its TCASE and die max are within
  /// `tolerance_c` of the target's: the segment then ends on the target,
  /// whose probe counts toward the peaks and gives the end TCASE.  The
  /// boundary is seeded from `t` itself, so the result is a pure function
  /// of (server config, power map, operating point, `t`, `duration_s`,
  /// `tolerance_c`, `target`).  The thermal model's step scratch is
  /// released on return, so an idle server holds none.  Throws
  /// PreconditionError past a budget of 100,000 trial steps, naming the
  /// time reached.
  AdvanceResult advance(std::vector<double>& t, double duration_s,
                        double tolerance_c,
                        const std::vector<double>* target = nullptr);

  /// Access to the thermal model (e.g. for transient stepping).
  [[nodiscard]] thermal::ThermalModel& thermal() { return thermal_; }
  [[nodiscard]] const thermal::ThermalModel& thermal() const {
    return thermal_;
  }
  [[nodiscard]] const thermosyphon::Thermosyphon& thermosyphon_model() const {
    return syphon_;
  }

 private:
  [[nodiscard]] power::PackagePowerRequest request(
      const workload::BenchmarkProfile& bench,
      const workload::Configuration& config_pt,
      const std::vector<int>& active_cores, power::CState idle_state) const;
  void set_power(const floorplan::UnitPowers& powers);
  [[nodiscard]] SimulationResult coupled_solve(
      const floorplan::UnitPowers& powers);

  /// The coupled boundary loop behind `coupled_solve` and `steady_field`.
  struct BoundaryLoop {
    SteadyField field;
    thermosyphon::ThermosyphonState syphon;  ///< The last iterate's.
    double coupling_residual = 1.0;  ///< Of the newest heat map.
    std::size_t cg_iterations = 0;
  };
  /// Substitute boundary and field from `hint` (empty: cold) at most
  /// `max_iterations` times, each inner solve to the forcing tolerance and
  /// the last allowed one to the steady tolerance; stop early once
  /// successive fields agree to `stop_c` [°C] (never when negative).
  [[nodiscard]] BoundaryLoop boundary_loop(std::vector<double> hint,
                                           int max_iterations, double stop_c);

  ServerConfig config_;
  floorplan::Floorplan floorplan_;
  power::PackagePowerModel power_model_;
  workload::Profiler profiler_;
  thermal::ThermalModel thermal_;
  thermosyphon::Thermosyphon syphon_;
  double power_w_ = 0.0;  ///< Total of the installed power map [W].
  /// Temperature field of the previous coupled solve; warm-start hint for
  /// the next one (see ServerConfig::reuse_thermal_state).
  std::vector<double> last_temperature_;
};

/// Default evaporator geometry matched to the default stack config.
[[nodiscard]] thermosyphon::EvaporatorGeometry default_evaporator_geometry(
    thermosyphon::Orientation orientation);

}  // namespace tpcool::core
