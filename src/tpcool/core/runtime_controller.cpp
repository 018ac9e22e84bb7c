#include "tpcool/core/runtime_controller.hpp"

#include <algorithm>
#include <string>

#include "tpcool/util/error.hpp"

namespace tpcool::core {

namespace {

/// Initial uniform package temperature of a controlled run [°C].
constexpr double kStartTemperatureC = 40.0;

}  // namespace

const char* to_string(ControlAction action) {
  switch (action) {
    case ControlAction::kNone: return "-";
    case ControlAction::kLowerFrequency: return "lower-frequency";
    case ControlAction::kRaiseFlow: return "raise-flow";
    case ControlAction::kThrottle: return "throttle";
  }
  return "?";
}

RuntimeController::RuntimeController(ServerModel& server, Config config)
    : server_(&server), config_(std::move(config)) {
  TPCOOL_REQUIRE(!config_.flow_steps_kg_h.empty(), "no flow steps");
  TPCOOL_REQUIRE(std::is_sorted(config_.flow_steps_kg_h.begin(),
                                config_.flow_steps_kg_h.end()),
                 "flow steps must be ascending");
  TPCOOL_REQUIRE(config_.control_period_s > 0.0 && config_.max_steps > 0,
                 "invalid control timing");
}

ControlTrace RuntimeController::run(const workload::BenchmarkProfile& bench,
                                    const ScheduleDecision& decision,
                                    const workload::QoSRequirement& qos) {
  ControlTrace trace;
  const std::vector<double>& flow_steps = config_.flow_steps_kg_h;
  const double start_flow_kg_h = server_->operating_point().water_flow_kg_h;
  // Start at the first valve step that keeps the server's current flow.
  const auto start = std::find_if(
      flow_steps.begin(), flow_steps.end(),
      [&](double flow) { return flow >= start_flow_kg_h - 1e-9; });
  TPCOOL_REQUIRE(start != flow_steps.end(),
                 "server water flow " + std::to_string(start_flow_kg_h) +
                     " kg/h is above the highest flow step " +
                     std::to_string(flow_steps.back()) + " kg/h");
  std::size_t flow_step =
      static_cast<std::size_t>(start - flow_steps.begin());
  workload::Configuration config = decision.point.config;

  // Initial state: uniform package temperature, no evaporator heat yet
  // (the syphon's idle-loop path gives a stagnant-pool boundary, which
  // self-corrects within a couple of periods).
  const thermal::StackModel& stack = server_->stack();
  std::vector<double> t(server_->thermal().cell_count(), kStartTemperatureC);
  util::Grid2D<double> evap_heat(stack.grid.nx, stack.grid.ny, 0.0);

  const auto lower_freq_ok = [&](double next_f) {
    workload::Configuration candidate = config;
    candidate.freq_ghz = next_f;
    return qos.satisfied_by(workload::normalized_exec_time(bench, candidate));
  };

  for (int step = 0; step < config_.max_steps; ++step) {
    // Apply the current operating state, advance one period, measure.
    server_->set_operating_point(
        {.water_flow_kg_h = flow_steps[flow_step],
         .water_inlet_c = server_->operating_point().water_inlet_c});
    server_->load(bench, config, decision.cores, decision.idle_state);
    evap_heat = server_->step_lagged(t, evap_heat, config_.control_period_s);
    const PackageProbe probe = server_->probe(t);

    ControlRecord record;
    record.time_s = (step + 1) * config_.control_period_s;
    record.tcase_c = probe.tcase_c;
    record.die_max_c = probe.die_max_c;
    record.freq_ghz = config.freq_ghz;
    record.flow_kg_h = flow_steps[flow_step];

    // React (§VII): on emergency, DVFS down when the QoS allows it,
    // otherwise open the valve; throttle as a last resort.
    if (record.tcase_c >= config_.tcase_limit_c) {
      trace.emergency_seen = true;
      const auto& levels = power::core_frequency_levels();
      const auto it = std::find(levels.begin(), levels.end(), config.freq_ghz);
      const bool can_lower = it != levels.begin();
      const double next_f = can_lower ? *(it - 1) : config.freq_ghz;
      if (can_lower && lower_freq_ok(next_f)) {
        config.freq_ghz = next_f;
        record.action = ControlAction::kLowerFrequency;
      } else if (flow_step + 1 < flow_steps.size()) {
        ++flow_step;
        record.action = ControlAction::kRaiseFlow;
      } else if (can_lower) {
        config.freq_ghz = levels.front();
        record.action = ControlAction::kThrottle;
        trace.qos_violated = true;
      }
    }
    trace.records.push_back(record);
  }
  return trace;
}

}  // namespace tpcool::core
