/// \file table1_cstates.cpp
/// \brief Regenerates Table I: C-state power consumption of the Xeon E5 v4
///        for all 8 cores at the three DVFS levels.  The per-state rows fan
///        out through core::run_table1 (TPCOOL_NUM_THREADS sets the
///        thread count; results are bit-identical for any thread count).

#include <iostream>

#include "tpcool/core/experiment.hpp"
#include "tpcool/util/table.hpp"

int main() {
  using namespace tpcool;
  std::cout << "== Table I: C-state power, all 8 cores ==\n\n";

  const std::vector<core::Table1Row> rows = core::run_table1();

  util::TablePrinter table({"state", "latency [us]", "P @2.6GHz [W]",
                            "P @2.9GHz [W]", "P @3.2GHz [W]"});
  for (const core::Table1Row& row : rows) {
    if (row.state == power::CState::kC3 || row.state == power::CState::kC6) {
      continue;  // extension rows printed separately below
    }
    table.add_row({power::to_string(row.state),
                   util::TablePrinter::fmt(row.latency_us, 0),
                   util::TablePrinter::fmt(row.power_all8_w[0], 0),
                   util::TablePrinter::fmt(row.power_all8_w[1], 0),
                   util::TablePrinter::fmt(row.power_all8_w[2], 0)});
  }
  table.print(std::cout);

  std::cout << "\npaper (Table I):\n"
               "POLL   0    27   32   40\n"
               "C1     2    14   15   17\n"
               "C1E    10   9    9    9\n"
               "\nmodel extension (deeper states, datasheet-consistent):\n";
  util::TablePrinter ext({"state", "latency [us]", "P [W] (all 8 cores)"});
  for (const core::Table1Row& row : rows) {
    if (row.state != power::CState::kC3 && row.state != power::CState::kC6) {
      continue;
    }
    ext.add_row({power::to_string(row.state),
                 util::TablePrinter::fmt(row.latency_us, 0),
                 util::TablePrinter::fmt(row.power_all8_w[2], 1)});
  }
  ext.print(std::cout);
  return 0;
}
