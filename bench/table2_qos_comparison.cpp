/// \file table2_qos_comparison.cpp
/// \brief Regenerates Table II: average thermal hot spot and maximum spatial
///        gradient for QoS ∈ {1x, 2x, 3x}, comparing the proposed approach
///        against the two state-of-the-art pipelines, over the PARSEC suite.
///
/// Paper reference values (die θmax / die ∇θmax):
///   Proposed      1x 78.3/0.90   2x 72.2/1.03   3x 68.4/1.25
///   [8]+[27]+[9]  1x 83.0/0.95   2x 79.5/1.33   3x 77.8/1.60
///   [8]+[27]+[7]  1x 83.0/0.95   2x 80.5/1.80   3x 79.1/2.30

#include <iostream>
#include <string>

#include "tpcool/core/experiment.hpp"
#include "tpcool/util/table.hpp"


int main(int argc, char** argv) {
  using namespace tpcool;
  core::ExperimentOptions options;
  for (int i = 1; i < argc; ++i) {
    if (std::string(argv[i]) == "--fast") {
      options.cell_size_m = 1.25e-3;
      options.max_benchmarks = 4;
    }
  }

  std::cout << "== Table II: thermal hot spot & spatial gradients vs QoS ==\n"
            << "(averaged over "
            << core::selected_benchmarks(options).size()
            << " PARSEC benchmarks)\n\n";

  const auto rows = core::run_table2(options);
  util::TablePrinter table({"approach", "QoS", "die max [C]",
                            "die grad [C/mm]", "pkg max [C]",
                            "pkg grad [C/mm]", "avg P [W]",
                            "water dT [K]"});
  for (const core::Table2Row& row : rows) {
    table.add_row(
        {core::to_string(row.approach),
         util::TablePrinter::fmt(row.qos_factor, 0) + "x",
         util::TablePrinter::fmt(row.die_max_c, 1),
         util::TablePrinter::fmt(row.die_grad_c_per_mm, 2),
         util::TablePrinter::fmt(row.package_max_c, 1),
         util::TablePrinter::fmt(row.package_grad_c_per_mm, 2),
         util::TablePrinter::fmt(row.avg_power_w, 1),
         util::TablePrinter::fmt(row.avg_water_dt_k, 1)});
  }
  table.print(std::cout);

  std::cout << "\npaper (Table II, die max / die grad):\n"
               "Proposed       78.3/0.90  72.2/1.03  68.4/1.25\n"
               "[8]+[27]+[9]   83.0/0.95  79.5/1.33  77.8/1.60\n"
               "[8]+[27]+[7]   83.0/0.95  80.5/1.80  79.1/2.30\n"
               "\nshape to hold: Proposed <= [9] <= [7] everywhere; the gap\n"
               "grows as the QoS relaxes; both SoA rows coincide at 1x.\n";
  return 0;
}
