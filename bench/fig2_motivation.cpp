/// \file fig2_motivation.cpp
/// \brief Regenerates Fig. 2 (motivational example): die vs package thermal
///        profile when the thermosyphon design and the workload mapping are
///        NOT optimized.
///
/// Paper reference values (Fig. 2d):
///   die     θmax 66.1   θavg 55.9   ∇θmax 6.6 °C/mm
///   package θmax 46.4   θavg 42.9   ∇θmax 0.5 °C/mm

#include <fstream>
#include <iostream>
#include <string>

#include "tpcool/core/experiment.hpp"
#include "tpcool/util/csv.hpp"
#include "tpcool/util/table.hpp"


int main(int argc, char** argv) {
  using namespace tpcool;
  core::ExperimentOptions options;
  if (argc > 1 && std::string(argv[1]) == "--fast") options.cell_size_m = 1.25e-3;

  std::cout << "== Fig. 2: die vs package profile, non-optimized design + "
               "mapping ==\n\n";
  const core::Fig2Result r = core::run_fig2_motivation(options);

  util::TablePrinter table(
      {"", "thetamax [C]", "thetaavg [C]", "grad-max [C/mm]"});
  table.add_row({"Die", util::TablePrinter::fmt(r.die.max_c, 1),
                 util::TablePrinter::fmt(r.die.avg_c, 1),
                 util::TablePrinter::fmt(r.die.grad_max_c_per_mm, 1)});
  table.add_row({"Package", util::TablePrinter::fmt(r.package.max_c, 1),
                 util::TablePrinter::fmt(r.package.avg_c, 1),
                 util::TablePrinter::fmt(r.package.grad_max_c_per_mm, 1)});
  table.print(std::cout);

  std::cout << "\npaper (Fig. 2d):\n"
               "Die       66.1   55.9   6.6\n"
               "Package   46.4   42.9   0.5\n";

  std::ofstream die_csv("fig2_die_map.csv"), pkg_csv("fig2_package_map.csv");
  util::write_grid_csv(die_csv, r.die_field_c);
  util::write_grid_csv(pkg_csv, r.package_field_c);
  std::cout << "\nwrote fig2_die_map.csv, fig2_package_map.csv\n";
  return 0;
}
