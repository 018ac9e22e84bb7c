#pragma once
/// \file control.hpp
/// \brief Closed-loop fleet control: a `FleetObserver` that tracks a fleet
///        PUE or QoS-violation-rate target online by biasing per-rack
///        water supply setpoints — the measurement → averager → control
///        error → damped update feedback idiom of SpECTRE's
///        `ControlSystem/`, one level up from the paper's per-server §VII
///        `core::RuntimeController`.
///
/// The loop closes through the streaming engine:
///
///   interval i physics → observers (controller updates its windowed
///   measurement, control error, and per-rack bias state) → engine
///   queries the applied biases when computing interval i+1 → biased
///   setpoints shift chiller COP / TCASE margins → interval i+1 physics.
///
/// Everything is a pure function of the interval stream, so a controlled
/// run stays bit-identical for any thread count and snapshot-warmable:
/// applied biases land on a configurable quantum lattice
/// (`FleetControllerConfig::quantum_c`), keeping the biased operating
/// points cache-key-stable the same way the discrete supply candidates
/// are.  docs/ARCHITECTURE.md "The control loop" has the dataflow;
/// docs/OBSERVABILITY.md documents the emitted `FleetControlState`.

#include <cstddef>
#include <cstdint>
#include <deque>
#include <utility>
#include <vector>

#include "tpcool/datacenter/fleet.hpp"
#include "tpcool/datacenter/streaming.hpp"
#include "tpcool/datacenter/workload_gen.hpp"

namespace tpcool::datacenter {

/// What the controller tracks.
enum class ControlMeasurement {
  /// `FleetInterval::pue`, time-weighted over the averaging window.
  /// PUE above target drives setpoints warmer (higher chiller COP, less
  /// electrical overhead); below target drives them colder.
  kFleetPue,
  /// QoS violations per active job (placed + shed), time-weighted.  A rate
  /// above target drives setpoints colder (more thermal margin).
  kQosViolationRate,
};

/// Controller parameters.  The update per interval, per rack, is
///
///   bias ← clamp(damping · bias + sign · gain_c · error [− backoff],
///                min_bias_c, max_bias_c)
///
/// a damped (leaky) integrator: `error` is the windowed measurement minus
/// the target, `sign` maps the error onto the warm/cold direction for the
/// chosen measurement, and the clamp is the anti-windup — the stored
/// state itself saturates, so a long excursion cannot bank unbounded
/// correction that must unwind before the sign of the response flips.
/// With damping < 1 the no-disturbance fixed point is
/// gain_c · error / (1 − damping), approached monotonically.
struct FleetControllerConfig {
  ControlMeasurement measurement = ControlMeasurement::kFleetPue;
  /// The tracked value: a PUE (>= 1 physically) or a violation rate.
  double target = 1.10;
  /// Averaging window, in intervals (>= 1): the measurement driving the
  /// error is the time-weighted mean of the last this-many intervals.
  std::size_t window_intervals = 4;
  /// °C of bias step per unit of control error per interval (>= 0; zero
  /// disables actuation entirely, bit-identical to no controller).
  double gain_c = 40.0;
  /// Integrator retention per interval, in (0, 1].  1 is a pure
  /// integrator (the clamp is then the only thing bounding the state).
  double damping = 0.85;
  /// Actuation range [°C], min <= max.  The default is cool-only: the
  /// controller may pull a rack below its natural setpoint (more margin,
  /// more chiller power) but never above it (which would trade TCASE
  /// violations for efficiency).
  double min_bias_c = -15.0;
  double max_bias_c = 0.0;
  /// Applied-bias lattice (> 0): the actuated bias is the stored state
  /// rounded to this quantum, so biased setpoints stay on a discrete
  /// grid and the solve cache can reuse operating points across
  /// intervals and runs (exact-double cache keys).
  double quantum_c = 1.0;
  /// Extra cold shift [°C/interval] applied to any rack that had a
  /// TCASE-violating job this interval (>= 0; 0 disables).  Lets a PUE
  /// tracker react to per-rack thermal distress without switching the
  /// fleet-wide measurement.
  double qos_backoff_c = 0.0;
};

/// Validate a `FleetControllerConfig`; throws PreconditionError on the
/// first violation.  Called by the `FleetController` constructor.
void validate_controller_config(const FleetControllerConfig& config);

/// The fleet-level feedback controller.  Attach to an engine with
/// `StreamingFleetEngine::set_controller` (which also registers it as an
/// observer); the engine then queries `applied_bias_c` per rack when it
/// computes each interval and stamps the result into
/// `FleetInterval::control`.
///
/// State resets on `on_run_begin`, so one controller instance can drive
/// successive runs and every run is reproducible from its config alone.
/// Like placement policies, a controller instance is single-run-at-a-time
/// and single-thread (the observer contract already guarantees callbacks
/// are serial).
class FleetController final : public FleetObserver {
 public:
  explicit FleetController(FleetControllerConfig config);

  [[nodiscard]] const FleetControllerConfig& config() const noexcept {
    return config_;
  }

  /// The actuated bias for `rack` next interval: the stored state rounded
  /// to the quantum lattice and clamped to the actuation range.  Valid
  /// after `on_run_begin`; 0 until the first interval has been observed.
  [[nodiscard]] double applied_bias_c(std::size_t rack) const;

  /// The raw (unquantized) integrator state for `rack` — what the tests
  /// assert convergence and anti-windup on.
  [[nodiscard]] double bias_c(std::size_t rack) const;

  /// Windowed control error (mean measurement − target) after the most
  /// recently observed interval.
  [[nodiscard]] double last_error() const noexcept { return error_; }

  /// The time-weighted windowed measurement itself.
  [[nodiscard]] double windowed_measurement() const noexcept { return mean_; }

  void on_run_begin(const FleetConfig& config, std::size_t stream_count,
                    double total_duration_s) override;
  void on_interval(const FleetInterval& interval,
                   const IntervalCounters& counters) override;

 private:
  FleetControllerConfig config_;
  std::deque<std::pair<double, double>> window_;  ///< (value, duration).
  std::vector<double> bias_;                      ///< Per-rack integrator.
  double error_ = 0.0;
  double mean_ = 0.0;
};

/// Convenience batch wrapper: `FleetModel::run` with `controller` in the
/// loop (engine + controller + aggregator).
[[nodiscard]] FleetResult run_controlled_fleet(
    const FleetConfig& config,
    const std::vector<workload::WorkloadTrace>& streams,
    FleetController& controller);

/// A complete closed-loop scenario: fleet + workload + controller config.
struct ControlScenario {
  FleetConfig fleet;
  std::vector<workload::WorkloadTrace> streams;
  FleetControllerConfig controller;
};

/// The canonical PUE-tracking scenario shared by the control tests and
/// `examples/fleet_control.cpp`: a
/// `diurnal_fleet_day` workload on the heterogeneous demo fleet, with a
/// controller whose target sits above the uncontrolled diurnal PUE range
/// — so the uncontrolled fleet drifts out of the ±2% band while the
/// controller's cool-only bias pulls the fleet onto it and holds it
/// through the swing.
[[nodiscard]] ControlScenario make_pue_tracking_day(std::uint64_t seed,
                                                    std::size_t streams,
                                                    double cell_size_m);

}  // namespace tpcool::datacenter
