/// \file fig5_orientation.cpp
/// \brief Regenerates Fig. 5: thermosyphon orientation study — Design 1
///        (east-west channels) vs Design 2 (north-south), all cores equally
///        loaded.
///
/// Paper reference values (Fig. 5c):
///   package  #1 52.7/50.3/0.33   #2 53.5/50.6/0.43
///   die      #1 73.2/62.1/6.8    #2 79.4/66.2/7.1

#include <iostream>
#include <string>

#include "tpcool/core/experiment.hpp"
#include "tpcool/util/table.hpp"


int main(int argc, char** argv) {
  using namespace tpcool;
  core::ExperimentOptions options;
  if (argc > 1 && std::string(argv[1]) == "--fast") options.cell_size_m = 1.25e-3;

  std::cout << "== Fig. 5: thermosyphon orientation, fully loaded CPU ==\n\n";
  const auto rows = core::run_fig5_orientation(options);

  util::TablePrinter table({"design", "region", "thetamax [C]",
                            "thetaavg [C]", "grad-max [C/mm]"});
  int design = 1;
  for (const core::Fig5Row& row : rows) {
    // Built with += to dodge GCC 12's false-positive -Wrestrict on chained
    // operator+ over a small string (GCC PR 105651).
    std::string name = "#";
    name += std::to_string(design++);
    name += " ";
    name += thermosyphon::to_string(row.orientation);
    table.add_row({name, "die", util::TablePrinter::fmt(row.die.max_c, 1),
                   util::TablePrinter::fmt(row.die.avg_c, 1),
                   util::TablePrinter::fmt(row.die.grad_max_c_per_mm, 2)});
    table.add_row({name, "package",
                   util::TablePrinter::fmt(row.package.max_c, 1),
                   util::TablePrinter::fmt(row.package.avg_c, 1),
                   util::TablePrinter::fmt(row.package.grad_max_c_per_mm, 2)});
  }
  table.print(std::cout);

  std::cout << "\npaper (Fig. 5c): design #1 (E-W) beats design #2 (N-S) on "
               "every metric\n  (pkg 52.7/50.3/0.33 vs 53.5/50.6/0.43; die "
               "73.2/62.1/6.8 vs 79.4/66.2/7.1).\n";
  return 0;
}
