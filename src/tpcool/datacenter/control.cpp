#include "tpcool/datacenter/control.hpp"

#include <algorithm>
#include <cmath>

#include "tpcool/util/error.hpp"

namespace tpcool::datacenter {

void validate_controller_config(const FleetControllerConfig& config) {
  TPCOOL_REQUIRE(std::isfinite(config.target) && config.target >= 0.0,
                 "controller target must be finite and nonnegative");
  TPCOOL_REQUIRE(config.window_intervals >= 1,
                 "controller averaging window must be >= 1 intervals");
  TPCOOL_REQUIRE(std::isfinite(config.gain_c) && config.gain_c >= 0.0,
                 "controller gain must be finite and nonnegative");
  TPCOOL_REQUIRE(config.damping > 0.0 && config.damping <= 1.0,
                 "controller damping must be in (0, 1]");
  TPCOOL_REQUIRE(
      std::isfinite(config.min_bias_c) && std::isfinite(config.max_bias_c) &&
          config.min_bias_c <= config.max_bias_c,
      "controller bias range needs min_bias_c <= max_bias_c, both finite");
  TPCOOL_REQUIRE(std::isfinite(config.quantum_c) && config.quantum_c > 0.0,
                 "controller bias quantum must be finite and positive");
}

FleetController::FleetController(FleetControllerConfig config)
    : config_(config) {
  validate_controller_config(config_);
}

double FleetController::applied_bias_c(std::size_t rack) const {
  const double raw = bias_c(rack);
  const double snapped =
      std::round(raw / config_.quantum_c) * config_.quantum_c;
  return std::clamp(snapped, config_.min_bias_c, config_.max_bias_c);
}

double FleetController::bias_c(std::size_t rack) const {
  TPCOOL_REQUIRE(rack < bias_.size(),
                 "controller: rack index out of range (run not begun?)");
  return bias_[rack];
}

void FleetController::on_run_begin(const FleetConfig& config,
                                   std::size_t stream_count,
                                   double total_duration_s) {
  (void)stream_count;
  (void)total_duration_s;
  // Reset per run: every run's control trajectory is a pure function of
  // its config and interval stream (reruns are bit-identical).
  bias_.assign(config.racks.size(), 0.0);
  window_.clear();
  error_ = 0.0;
}

void FleetController::on_interval(const FleetInterval& interval,
                                  const IntervalCounters& counters) {
  (void)counters;

  // Measurement → averager: push this interval's PUE into the window and
  // take the time-weighted mean.
  window_.emplace_back(interval.pue, interval.duration_s);
  while (window_.size() > config_.window_intervals) window_.pop_front();
  double weighted = 0.0;
  double weight = 0.0;
  for (const auto& [v, w] : window_) {
    weighted += v * w;
    weight += w;
  }
  const double mean = weight > 0.0 ? weighted / weight : interval.pue;

  // Control error → damped update: a PUE above target (positive error)
  // drives warmer (less chiller overhead).
  error_ = mean - config_.target;
  for (double& bias : bias_) {
    // Anti-windup: the stored integrator state itself is clamped to the
    // actuation range, so saturation never banks unbounded correction.
    bias = std::clamp(config_.damping * bias + config_.gain_c * error_,
                      config_.min_bias_c, config_.max_bias_c);
  }
}

FleetResult run_controlled_fleet(
    const FleetConfig& config,
    const std::vector<workload::WorkloadTrace>& streams,
    FleetController& controller) {
  StreamingFleetEngine engine(config, streams);
  engine.set_controller(controller);
  FleetResultAggregator aggregator;
  engine.add_observer(aggregator);
  engine.run();
  return aggregator.take();
}

ControlScenario make_pue_tracking_day(std::uint64_t seed, std::size_t streams,
                                      double cell_size_m) {
  ControlScenario scenario;
  scenario.fleet = make_heterogeneous_fleet(2, 2, cell_size_m);
  // Hot-climate heat rejection: with the default 35 °C ambient the demo
  // fleet's chillers sit at the free-cooling COP cap, where supply-bias
  // actuation has a dead zone (nothing changes until the bias pushes the
  // setpoint ~10 °C colder).  A ~46 °C condenser ambient keeps the COP on
  // the smooth part of the curve, so the loop has usable authority.
  for (std::size_t r = 0; r < scenario.fleet.racks.size(); ++r) {
    scenario.fleet.racks[r].chiller.ambient_c =
        46.0 + 0.5 * static_cast<double>(r);
  }
  scenario.streams =
      WorkloadGenerator(diurnal_fleet_day(seed, streams)).generate();
  // Target above the uncontrolled diurnal PUE range (tuned for the demo
  // fleet; tests/control_test.cpp pins the band): the uncontrolled fleet
  // spends the day below the ±2% band, the controller's cool-only bias
  // holds it on target through the swing.
  scenario.controller.target = 1.12;
  scenario.controller.window_intervals = 3;
  scenario.controller.gain_c = 60.0;
  scenario.controller.damping = 0.80;
  scenario.controller.min_bias_c = -15.0;
  scenario.controller.max_bias_c = 0.0;
  scenario.controller.quantum_c = 1.0;
  return scenario;
}

}  // namespace tpcool::datacenter
