#pragma once
/// \file runtime_controller.hpp
/// \brief Runtime thermal-emergency controller (§VII, last paragraph):
///        "during runtime, we increase water flow rate only if a thermal
///        emergency (TCASE ≥ TCASE_MAX) occurs and lowering the frequency
///        violates the QoS requirement."
///
/// The controller drives the transient thermal model in 0.5 s control
/// periods: each period is one `ServerModel::advance` call (adaptive
/// backward-Euler steps with the thermosyphon boundary converged in each,
/// landing exactly on the period's end), after which it reacts to the
/// measured case temperature.  The valve has four steps: 7, 10, 14 and 20 kg/h.

#include <string>
#include <vector>

#include "tpcool/core/scheduler.hpp"

namespace tpcool::core {

/// What the controller did in one period.
enum class ControlAction {
  kNone,
  kLowerFrequency,  ///< DVFS down one level (QoS still met).
  kRaiseFlow,       ///< Open the coolant valve one step.
  kThrottle,        ///< Emergency: forced lowest frequency (QoS violated).
};

[[nodiscard]] const char* to_string(ControlAction action);

/// One control-period record.
struct ControlRecord {
  double time_s = 0.0;
  double tcase_c = 0.0;
  double die_max_c = 0.0;
  double freq_ghz = 0.0;
  double flow_kg_h = 0.0;
  ControlAction action = ControlAction::kNone;
};

/// Trace of a controlled run.
struct ControlTrace {
  std::vector<ControlRecord> records;
  bool emergency_seen = false;
  bool qos_violated = false;  ///< A throttle action was required.
};

/// Quasi-static transient controller on top of a ServerModel.
class RuntimeController {
 public:
  struct Config {
    double tcase_limit_c = 85.0;  ///< Emergency threshold; must be finite.
    int max_steps = 40;           ///< Control periods per run; must be > 0.
  };

  RuntimeController(ServerModel& server, Config config);

  /// Run a workload phase under the controller. The decision provides the
  /// starting configuration and placement; `qos` bounds DVFS reactions.
  /// The valve starts at the first flow step at or above the server's
  /// current flow; a server flow above every step throws PreconditionError.
  [[nodiscard]] ControlTrace run(const workload::BenchmarkProfile& bench,
                                 const ScheduleDecision& decision,
                                 const workload::QoSRequirement& qos);

 private:
  ServerModel* server_;
  Config config_;
};

}  // namespace tpcool::core
