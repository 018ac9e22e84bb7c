/// \file fig3_exec_time.cpp
/// \brief Regenerates Fig. 3: execution time normalized to the baseline for
///        the five plotted configurations at fmax, for all 13 PARSEC
///        benchmarks, with the 2x QoS limit marked.  The per-benchmark rows
///        fan out through core::run_fig3 (TPCOOL_NUM_THREADS sets the
///        thread count; results are bit-identical for any thread count).

#include <iostream>
#include <string>

#include "tpcool/core/experiment.hpp"
#include "tpcool/util/table.hpp"

int main() {
  using namespace tpcool;
  std::cout << "== Fig. 3: normalized execution time @fmax (QoS limit = 2x) "
               "==\n\n";

  const auto configs = workload::fig3_configurations();
  std::vector<std::string> header{"benchmark"};
  for (const auto& c : configs) header.push_back(c.label());
  header.push_back("meets 2x at (2,4)?");
  util::TablePrinter table(header);

  for (const core::Fig3Row& row : core::run_fig3(core::ExperimentOptions{})) {
    std::vector<std::string> cells{row.benchmark};
    for (const double t : row.normalized_time) {
      cells.push_back(util::TablePrinter::fmt(t, 2));
    }
    cells.push_back(row.meets_2x_at_2_4 ? "yes" : "no");
    table.add_row(std::move(cells));
  }
  table.print(std::cout);

  std::cout << "\nproperties to match Fig. 3: baseline column (8,16,3.2) is "
               "1.00 for every benchmark;\nall other configurations are "
               "slower; the (2,4) column spans roughly 1.2-2.3x, with some\n"
               "benchmarks violating the 2x QoS limit there.\n";
  return 0;
}
