#include "tpcool/core/runtime_controller.hpp"

#include <algorithm>
#include <array>
#include <cmath>
#include <string>

#include "tpcool/power/core_power.hpp"
#include "tpcool/util/error.hpp"

namespace tpcool::core {

namespace {

/// Initial uniform package temperature of a controlled run [°C].
constexpr double kStartTemperatureC = 40.0;
/// Length of one control period [s].
constexpr double kControlPeriodS = 0.5;
/// Local error per adaptive step within a period [°C]: the transient
/// engine's default.
constexpr double kStepToleranceC = 0.05;
/// Coolant valve steps [kg/h], ascending.
constexpr std::array<double, 4> kFlowStepsKgH{7.0, 10.0, 14.0, 20.0};

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
    : server_(&server), config_(config) {
  // A NaN limit would compare false forever and silently disable every
  // reaction.
  TPCOOL_REQUIRE(std::isfinite(config_.tcase_limit_c),
                 "TCASE limit must be finite");
  TPCOOL_REQUIRE(config_.max_steps > 0, "max steps must be positive");
}

ControlTrace RuntimeController::run(const workload::BenchmarkProfile& bench,
                                    const ScheduleDecision& decision,
                                    const workload::QoSRequirement& qos) {
  ControlTrace trace;
  const auto& flow_steps = kFlowStepsKgH;
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

  // Initial state: uniform package temperature.  Each period seeds its
  // boundary from the field it starts on (ServerModel::advance).
  std::vector<double> t(server_->thermal().cell_count(), kStartTemperatureC);

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
    server_->advance(t, kControlPeriodS, kStepToleranceC);
    const PackageProbe probe = server_->probe(t);

    ControlRecord record;
    record.time_s = (step + 1) * kControlPeriodS;
    record.tcase_c = probe.tcase_c;
    record.die_max_c = probe.die_max_c;
    record.freq_ghz = config.freq_ghz;
    record.flow_kg_h = flow_steps[flow_step];

    // React (§VII): on emergency, DVFS down when the QoS allows it,
    // otherwise open the valve; throttle as a last resort.
    if (record.tcase_c >= config_.tcase_limit_c) {
      trace.emergency_seen = true;
      const auto& levels = power::core_frequency_levels();
      // The level the power model runs the frequency at: matched within its
      // tolerance, not exactly, or a frequency a hair off its level finds
      // none and "lowers" to the top one.
      const auto it = std::find_if(levels.begin(), levels.end(), [&](double f) {
        return std::abs(f - config.freq_ghz) < power::kFrequencyMatchGhz;
      });
      TPCOOL_ENSURE(it != levels.end(), "unsupported DVFS frequency");
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
