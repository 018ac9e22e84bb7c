/// \file loop_diagnostics.cpp
/// \brief Diagnostic tour of the thermosyphon internals: loop state vs load,
///        per-channel quality/dry-out margins, and the qualitative orderings
///        behind Figs. 2, 5 and 6. Useful when re-calibrating the model.

#include <iostream>

#include "tpcool/core/experiment.hpp"
#include "tpcool/util/table.hpp"

using namespace tpcool;

namespace {

void loop_vs_load() {
  std::cout << "== loop state vs load (proposed design) ==\n";
  core::ServerModel server(core::server_config_for(core::Approach::kProposed));
  const workload::BenchmarkProfile& bench = workload::worst_case_benchmark();

  util::TablePrinter table({"cores", "P[W]", "Tsat[C]", "mdot[g/s]",
                            "x_exit", "max ch x", "dryout ch", "die max[C]",
                            "TCASE[C]"});
  for (const int nc : {2, 4, 6, 8}) {
    const workload::Configuration config{nc, 2, 3.2};
    std::vector<int> cores;
    for (int i = 1; i <= nc; ++i) cores.push_back(i);
    const core::SimulationResult sim =
        server.simulate(bench, config, cores, power::CState::kC1E);
    double max_x = 0.0;
    int dried = 0;
    for (const auto& ch : sim.syphon.channels) {
      max_x = std::max(max_x, ch.exit_quality);
      dried += ch.dried_out ? 1 : 0;
    }
    table.add_row({std::to_string(nc), util::TablePrinter::fmt(sim.total_power_w),
                   util::TablePrinter::fmt(sim.syphon.t_sat_c),
                   util::TablePrinter::fmt(sim.syphon.refrigerant_flow_kg_s * 1e3, 3),
                   util::TablePrinter::fmt(sim.syphon.loop_exit_quality, 3),
                   util::TablePrinter::fmt(max_x, 3), std::to_string(dried),
                   util::TablePrinter::fmt(sim.die.max_c),
                   util::TablePrinter::fmt(sim.tcase_c)});
  }
  table.print(std::cout);
  std::cout << '\n';
}

void fig2_probe() {
  std::cout << "== Fig.2 motivation (paper: die 66.1/55.9/6.6, pkg 46.4/42.9/0.5) ==\n";
  const core::Fig2Result r = core::run_fig2_motivation({});
  std::cout << "die : " << r.die.max_c << " / " << r.die.avg_c << " / "
            << r.die.grad_max_c_per_mm << "\n"
            << "pkg : " << r.package.max_c << " / " << r.package.avg_c
            << " / " << r.package.grad_max_c_per_mm << "\n\n";
}

void fig5_probe() {
  std::cout << "== Fig.5 orientation (paper pkg: D1 52.7/50.3/0.33, D2 53.5/50.6/0.43;"
               " die: 73.2/62.1/6.8 vs 79.4/66.2/7.1) ==\n";
  for (const core::Fig5Row& row : core::run_fig5_orientation({})) {
    std::cout << thermosyphon::to_string(row.orientation) << "\n  die "
              << row.die.max_c << " / " << row.die.avg_c << " / "
              << row.die.grad_max_c_per_mm << " | pkg " << row.package.max_c
              << " / " << row.package.avg_c << " / "
              << row.package.grad_max_c_per_mm << "\n";
  }
  std::cout << '\n';
}

void fig6_probe() {
  std::cout << "== Fig.6 scenarios (paper POLL θmax: 68.2/65.0/77.6; C1: 57.1/64.2/73.3) ==\n";
  for (const core::Fig6Row& row : core::run_fig6_scenarios({})) {
    std::cout << "scenario " << row.scenario << " @" << power::to_string(row.idle_state)
              << " : die " << row.die.max_c << " / " << row.die.avg_c
              << " / " << row.die.grad_max_c_per_mm << "\n";
  }
  std::cout << '\n';
}

}  // namespace

int main() {
  loop_vs_load();
  fig2_probe();
  fig5_probe();
  fig6_probe();
  return 0;
}
