/// \file cooling_technologies.cpp
/// \brief The paper's §I/§II backdrop, quantified: air cooling vs
///        single-phase cold plate vs the two-phase thermosyphon for the
///        worst-case 79 W workload — case temperature, coolant needs,
///        parasitic power, and the facility PUE each technology implies.

#include <iostream>
#include <string>

#include "tpcool/cooling/air_cooling.hpp"
#include "tpcool/cooling/chiller.hpp"
#include "tpcool/cooling/cold_plate.hpp"
#include "tpcool/cooling/pue.hpp"
#include "tpcool/core/server.hpp"
#include "tpcool/util/table.hpp"


int main(int argc, char** argv) {
  using namespace tpcool;
  double cell = 1.0e-3;
  if (argc > 1 && std::string(argv[1]) == "--fast") cell = 1.5e-3;

  std::cout << "== Cooling technologies at the worst case (79 W package) "
               "==\n\n";
  const double q = 79.0;
  const cooling::ChillerModel chiller;

  // --- air cooling: 25 C inlet air produced by a CRAC at 18 C setpoint.
  const cooling::AirCoolerDesign air_design;
  // Size every technology for the same ~52 C case temperature so the
  // comparison is iso-thermal-performance.
  const double fan =
      cooling::required_fan_speed(air_design, q, 25.0, 52.0);
  const bool air_ok = fan <= air_design.max_speed_frac;
  const cooling::AirCoolerState air = cooling::air_cooler_at(air_design, fan);
  const double air_tcase = cooling::air_cooled_case_c(air, q, 25.0);

  // --- single-phase cold plate: 30 C water, flow sized for TCASE ~ 52 C.
  const cooling::ColdPlateDesign plate_design;
  const double flow_frac = cooling::required_flow(plate_design, q, 30.0, 52.0);
  const cooling::ColdPlateState plate =
      cooling::cold_plate_at(plate_design, flow_frac);
  const double plate_tcase = cooling::cold_plate_case_c(plate, q, 30.0);

  // --- two-phase thermosyphon: the paper's design point (7 kg/h @ 30 C),
  //     full coupled simulation.
  core::ServerConfig config;
  config.stack.cell_size_m = cell;
  config.design.evaporator = core::default_evaporator_geometry(
      thermosyphon::Orientation::kEastWest);
  core::ServerModel server(std::move(config));
  const core::SimulationResult sim = server.simulate(
      workload::worst_case_benchmark(), {8, 2, 3.2},
      {1, 2, 3, 4, 5, 6, 7, 8}, power::CState::kPoll);

  util::TablePrinter table({"technology", "coolant", "TCASE [C]",
                            "parasitic [W]", "chiller setpoint [C]",
                            "chiller elec [W]"});
  table.add_row(
      {"air (heatsink+fan)",
       air_ok ? util::TablePrinter::fmt(air.speed_frac, 2) + "x fan"
              : "INFEASIBLE",
       util::TablePrinter::fmt(air_tcase, 1),
       util::TablePrinter::fmt(air.fan_power_w + 8.0, 1),  // + CRAC blowers
       "18", util::TablePrinter::fmt(chiller.electrical_power_w(q, 18.0), 1)});
  table.add_row(
      {"single-phase cold plate",
       util::TablePrinter::fmt(plate.flow_kg_h, 0) + " kg/h water",
       util::TablePrinter::fmt(plate_tcase, 1),
       util::TablePrinter::fmt(plate.pump_power_w, 1), "30",
       util::TablePrinter::fmt(chiller.electrical_power_w(q, 30.0), 1)});
  table.add_row(
      {"two-phase thermosyphon", "7 kg/h water (no pump)",
       util::TablePrinter::fmt(sim.tcase_c, 1), "0.5",
       "30", util::TablePrinter::fmt(chiller.electrical_power_w(q, 30.0), 1)});
  table.print(std::cout);

  // PUE of a facility built on each technology.
  const auto facility = [&](double chiller_w, double pumps_fans_w) {
    cooling::FacilityPower p;
    p.it_w = q;
    p.chiller_w = chiller_w;
    p.pumps_fans_w = pumps_fans_w;
    p.distribution_w = cooling::distribution_loss_w(q);
    return p;
  };
  std::cout << "\nfacility PUE:\n";
  util::TablePrinter pue_table({"technology", "PUE", "cooling share"});
  const auto add_pue = [&](const char* name, const cooling::FacilityPower& p) {
    pue_table.add_row({name, util::TablePrinter::fmt(cooling::pue(p), 3),
                       util::TablePrinter::fmt(
                           100.0 * cooling::cooling_fraction(p), 1) + " %"});
  };
  add_pue("air cooling",
          facility(chiller.electrical_power_w(q, 18.0),
                   air.fan_power_w + 8.0));
  add_pue("single-phase cold plate",
          facility(chiller.electrical_power_w(q, 30.0),
                   plate.pump_power_w + 1.0));
  add_pue("two-phase thermosyphon",
          facility(chiller.electrical_power_w(q, 30.0), 0.5));
  pue_table.print(std::cout);

  std::cout << "\npaper context: thermosyphon PUE ~1.05 [8]; air-cooled "
               "facilities ~1.4-1.65 (SI);\ntwo-phase cooling needs no pump "
               "and an order less water than single-phase DCLC.\n";
  return 0;
}
