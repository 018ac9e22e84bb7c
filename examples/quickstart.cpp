/// \file quickstart.cpp
/// \brief Minimal tour of the tpcool public API: build the paper's server,
///        schedule a PARSEC workload under a QoS constraint, and inspect the
///        resulting thermal profile.

#include <iostream>

#include "tpcool/core/scheduler.hpp"
#include "tpcool/util/table.hpp"

int main() {
  using namespace tpcool;

  // 1. The paper's proposed system: east-west thermosyphon charged with
  //    R236fa at 55 %, Algorithm-1 configuration selection, C-state-aware
  //    thermal mapping.  The scheduler decides from offline profiles and
  //    the floorplan; the server runs the coupled thermal solve.
  const core::Scheduler scheduler(core::Approach::kProposed);
  core::ServerModel server(core::server_config_for(core::Approach::kProposed));

  // 2. Pick a workload and a QoS requirement (2x tolerated degradation).
  const workload::BenchmarkProfile& bench = workload::find_benchmark("x264");
  const workload::QoSRequirement qos{2.0};

  // 3. Schedule: configuration (Nc, Nt, f), C-state, core placement.
  const core::ScheduleDecision decision = scheduler.schedule(bench, qos);
  const core::SimulationResult sim =
      server.simulate(bench, decision.point.config, decision.cores,
                      decision.idle_state);

  std::cout << "benchmark        : " << bench.name << "\n"
            << "QoS              : " << qos.factor << "x\n"
            << "configuration    : " << decision.point.config.label() << "\n"
            << "normalized time  : " << decision.point.norm_time << "\n"
            << "idle C-state     : " << power::to_string(decision.idle_state)
            << "\n"
            << "mapped cores     : ";
  for (const int id : decision.cores) std::cout << id << ' ';
  std::cout << "\n\n";

  // 4. Thermal outcome of the coupled thermosyphon + 3D-thermal solve.
  util::TablePrinter table({"metric", "value"});
  table.add_row({"package power [W]", util::TablePrinter::fmt(sim.total_power_w)});
  table.add_row({"die hot spot [C]", util::TablePrinter::fmt(sim.die.max_c)});
  table.add_row({"die average [C]", util::TablePrinter::fmt(sim.die.avg_c)});
  table.add_row({"die max gradient [C/mm]",
                 util::TablePrinter::fmt(sim.die.grad_max_c_per_mm)});
  table.add_row({"TCASE [C]", util::TablePrinter::fmt(sim.tcase_c)});
  table.add_row({"T_sat [C]", util::TablePrinter::fmt(sim.syphon.t_sat_c)});
  table.add_row({"refrigerant flow [g/s]",
                 util::TablePrinter::fmt(sim.syphon.refrigerant_flow_kg_s * 1e3)});
  table.add_row({"loop exit quality",
                 util::TablePrinter::fmt(sim.syphon.loop_exit_quality, 3)});
  table.add_row({"water out [C]",
                 util::TablePrinter::fmt(sim.syphon.water_outlet_c)});
  table.add_row({"dry-out?", sim.syphon.any_dryout ? "yes" : "no"});
  table.print(std::cout);
  return 0;
}
