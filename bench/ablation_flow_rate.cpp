/// \file ablation_flow_rate.cpp
/// \brief Ablation of the §VI-C design choice: the water operating map.
///        Sweeps flow rate × inlet temperature under the worst case and
///        marks the feasible region (TCASE ≤ 85 °C). The paper picks the
///        lowest flow and the highest temperature that remain feasible —
///        7 kg/h at 30 °C.

#include <iostream>
#include <string>

#include "tpcool/core/server.hpp"
#include "tpcool/util/table.hpp"


int main(int argc, char** argv) {
  using namespace tpcool;
  double cell = 1.25e-3;
  if (argc > 1 && std::string(argv[1]) == "--fast") cell = 1.75e-3;

  std::cout << "== Ablation: water flow x inlet temperature operating map "
               "(worst case) ==\n   cell entries: TCASE [C]; '*' = "
               "infeasible (TCASE > 85)\n\n";

  const std::vector<double> flows{2.0, 4.0, 7.0, 10.0, 14.0, 20.0};
  const std::vector<double> temps{15.0, 20.0, 25.0, 30.0, 35.0, 40.0};

  std::vector<std::string> header{"flow [kg/h] \\ T_w [C]"};
  for (const double t : temps) header.push_back(util::TablePrinter::fmt(t, 0));
  util::TablePrinter table(header);

  core::ServerConfig config;
  config.stack.cell_size_m = cell;
  config.design.evaporator = core::default_evaporator_geometry(
      thermosyphon::Orientation::kEastWest);
  core::ServerModel server(std::move(config));
  const auto& bench = workload::worst_case_benchmark();
  const std::vector<int> all_cores{1, 2, 3, 4, 5, 6, 7, 8};

  for (const double flow : flows) {
    std::vector<std::string> row{util::TablePrinter::fmt(flow, 0)};
    for (const double t_w : temps) {
      server.set_operating_point(
          {.water_flow_kg_h = flow, .water_inlet_c = t_w});
      const core::SimulationResult sim = server.simulate(
          bench, {8, 2, 3.2}, all_cores, power::CState::kPoll);
      std::string cell_text = util::TablePrinter::fmt(sim.tcase_c, 1);
      if (sim.tcase_c > 85.0) cell_text += "*";
      row.push_back(std::move(cell_text));
    }
    table.add_row(std::move(row));
  }
  table.print(std::cout);

  std::cout << "\nexpected shape: TCASE falls with flow and rises with water"
               " temperature;\nthe paper's design point (7 kg/h, 30 C) is "
               "the cheapest feasible corner:\nhigher temperature saves "
               "chiller power, lower flow saves pumping power.\n";
  return 0;
}
