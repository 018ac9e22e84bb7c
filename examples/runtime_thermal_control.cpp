/// \file runtime_thermal_control.cpp
/// \brief Transient demo of the §VII runtime controller: a hot workload
///        lands on the server, the package heats up, and on a (deliberately
///        tightened) TCASE limit the controller reacts — DVFS first while
///        the QoS allows it, then the coolant valve.

#include <iostream>

#include "tpcool/core/pipelines.hpp"
#include "tpcool/core/runtime_controller.hpp"
#include "tpcool/util/table.hpp"

int main() {
  using namespace tpcool;
  std::cout << "== Runtime thermal control (transient, tightened limit) ==\n\n";

  core::ServerModel server(
      core::server_config_for(core::Approach::kProposed, 1.5e-3));
  const auto& bench = workload::worst_case_benchmark();

  // Full-load decision: all 8 cores at fmax, idle state irrelevant.
  core::ScheduleDecision decision;
  decision.point.config = {8, 2, 3.2};
  decision.point.norm_time = 1.0;
  decision.cores = {1, 2, 3, 4, 5, 6, 7, 8};
  decision.idle_state = power::CState::kPoll;

  core::RuntimeController::Config config;
  config.tcase_limit_c = 45.0;  // tightened so the demo shows reactions
  config.max_steps = 24;
  core::RuntimeController controller(server, config);

  // 3x QoS slack: the controller may lower the frequency before opening
  // the valve (paper §VII: raise the flow only if DVFS would violate QoS).
  const core::ControlTrace trace =
      controller.run(bench, decision, workload::QoSRequirement{3.0});

  util::TablePrinter table(
      {"t [s]", "TCASE [C]", "die max [C]", "f [GHz]", "flow [kg/h]",
       "action"});
  for (const core::ControlRecord& r : trace.records) {
    table.add_row({util::TablePrinter::fmt(r.time_s, 1),
                   util::TablePrinter::fmt(r.tcase_c, 1),
                   util::TablePrinter::fmt(r.die_max_c, 1),
                   util::TablePrinter::fmt(r.freq_ghz, 1),
                   util::TablePrinter::fmt(r.flow_kg_h, 0),
                   to_string(r.action)});
  }
  table.print(std::cout);

  std::cout << "\nemergency seen : " << (trace.emergency_seen ? "yes" : "no")
            << "\nQoS violated   : " << (trace.qos_violated ? "yes" : "no")
            << "\n";
  return 0;
}
