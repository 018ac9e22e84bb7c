/// \file ablation_filling_ratio.cpp
/// \brief Ablation of the §VI-B design choice: sweep the refrigerant filling
///        ratio under the worst-case workload and show why the paper charges
///        R236fa at 55 % — under-charge starves the loop and dries out;
///        over-charge floods the condenser and raises the loop temperature.

#include <iostream>
#include <string>

#include "tpcool/core/server.hpp"
#include "tpcool/util/table.hpp"


int main(int argc, char** argv) {
  using namespace tpcool;
  double cell = 1.0e-3;
  if (argc > 1 && std::string(argv[1]) == "--fast") cell = 1.5e-3;

  std::cout << "== Ablation: filling ratio sweep (worst-case workload, "
               "8 cores @ fmax, 7 kg/h @ 30 C) ==\n\n";

  util::TablePrinter table({"fill ratio", "Tsat [C]", "mdot [g/s]",
                            "loop exit x", "dried ch", "die max [C]",
                            "TCASE [C]", "feasible (TCASE<=85, no dryout)"});

  const auto& bench = workload::worst_case_benchmark();
  const std::vector<int> all_cores{1, 2, 3, 4, 5, 6, 7, 8};
  for (const double fr :
       {0.25, 0.35, 0.45, 0.55, 0.65, 0.75, 0.85, 0.95}) {
    core::ServerConfig config;
    config.stack.cell_size_m = cell;
    config.design.evaporator = core::default_evaporator_geometry(
        thermosyphon::Orientation::kEastWest);
    config.design.filling_ratio = fr;
    core::ServerModel server(std::move(config));
    const core::SimulationResult sim = server.simulate(
        bench, {8, 2, 3.2}, all_cores, power::CState::kPoll);
    int dried = 0;
    for (const auto& ch : sim.syphon.channels) dried += ch.dried_out ? 1 : 0;
    const bool feasible = sim.tcase_c <= 85.0;
    table.add_row(
        {util::TablePrinter::fmt(fr, 2),
         util::TablePrinter::fmt(sim.syphon.t_sat_c, 1),
         util::TablePrinter::fmt(sim.syphon.refrigerant_flow_kg_s * 1e3, 2),
         util::TablePrinter::fmt(sim.syphon.loop_exit_quality, 3),
         std::to_string(dried),
         util::TablePrinter::fmt(sim.die.max_c, 1),
         util::TablePrinter::fmt(sim.tcase_c, 1),
         feasible ? "yes" : "no"});
  }
  table.print(std::cout);

  std::cout << "\nexpected shape: circulation (mdot) grows with charge; the\n"
               "dried-channel count falls with charge until the condenser\n"
               "floods (>0.70), where Tsat and the die hot spot rise again —\n"
               "the paper's 0.55 sits in the flat optimum.\n";
  return 0;
}
