/// \file cooling_power.cpp
/// \brief Regenerates §VIII-B: the cooling-power comparison at iso-hot-spot.
///
/// Paper: without the proposed mapping, the same hot spot requires 20 °C
/// water (vs 30 °C); the loop ΔT is 11 °C vs 6 °C; Eq. (1) then gives a
/// ≥45 % chiller-power reduction — and "in real scenarios the chiller would
/// need to consume much less power (even close to zero)" because 30 °C
/// water can be produced nearly for free.

#include <iostream>
#include <string>

#include "tpcool/core/experiment.hpp"
#include "tpcool/util/table.hpp"


int main(int argc, char** argv) {
  using namespace tpcool;
  core::ExperimentOptions options;
  if (argc > 1 && std::string(argv[1]) == "--fast") options.cell_size_m = 1.25e-3;

  std::cout << "== SVIII-B: chiller cooling power at iso-hot-spot (2x QoS, "
               "x264, 7 kg/h) ==\n\n";
  const core::CoolingPowerResult r = core::run_cooling_power(options);

  util::TablePrinter table({"quantity", "proposed", "state of the art"});
  table.add_row({"water inlet [C]",
                 util::TablePrinter::fmt(r.proposed_water_c, 1),
                 util::TablePrinter::fmt(r.soa_water_c, 1)});
  table.add_row({"die hot spot [C]",
                 util::TablePrinter::fmt(r.proposed_die_max_c, 1),
                 util::TablePrinter::fmt(r.proposed_die_max_c, 1)});
  table.add_row({"loop dT in->out [K]",
                 util::TablePrinter::fmt(r.proposed_loop_dt_k, 1),
                 util::TablePrinter::fmt(r.soa_loop_dt_k, 1)});
  table.add_row({"Eq.(1) lift power [W]",
                 util::TablePrinter::fmt(r.proposed_lift_power_w, 1),
                 util::TablePrinter::fmt(r.soa_lift_power_w, 1)});
  table.add_row({"chiller electrical [W]",
                 util::TablePrinter::fmt(r.proposed_electrical_w, 1),
                 util::TablePrinter::fmt(r.soa_electrical_w, 1)});
  table.print(std::cout);

  std::cout << "\nreduction (Eq. 1 lift accounting) : "
            << util::TablePrinter::fmt(r.lift_reduction_pct, 1) << " %\n"
            << "reduction (COP electrical model)  : "
            << util::TablePrinter::fmt(r.electrical_reduction_pct, 1)
            << " %\n"
            << "\npaper: water 30 C vs 20 C; dT 6 C vs 11 C; >=45 % chiller-"
               "power reduction.\n";
  return 0;
}
