/// \file datacenter_rack.cpp
/// \brief Rack-level scenario (§V): several servers with mixed workloads
///        share one chiller, so every thermosyphon gets the same water
///        temperature. A one-rack fleet schedules each server, derives the
///        per-server maximum feasible supply temperature, sets the rack
///        setpoint, and compares the chiller bill of the proposed approach
///        against the state of the art.

#include <iostream>

#include "tpcool/datacenter/fleet.hpp"
#include "tpcool/util/table.hpp"

namespace {

/// One interval of a one-rack fleet: one single-phase stream per server.
tpcool::datacenter::FleetInterval plan_for(
    tpcool::core::Approach approach,
    const std::vector<std::string>& workloads) {
  tpcool::datacenter::RackSpec rack;
  rack.approach = approach;
  rack.servers = workloads.size();
  rack.cell_size_m = 1.5e-3;
  tpcool::datacenter::FleetConfig config;
  config.racks = {rack};

  std::vector<tpcool::workload::WorkloadTrace> streams;
  for (const std::string& name : workloads) {
    streams.emplace_back(std::vector<tpcool::workload::TracePhase>{
        {name, tpcool::workload::QoSRequirement{2.0}, 1.0}});
  }
  return tpcool::datacenter::FleetModel(std::move(config))
      .run(streams)
      .intervals[0];
}

}  // namespace

int main() {
  using namespace tpcool;
  const std::vector<std::string> workloads{
      "x264", "facesim", "canneal", "streamcluster", "ferret", "swaptions"};

  std::cout << "== Data-center rack: 6 servers, one chiller, 2x QoS ==\n\n";

  for (const core::Approach approach :
       {core::Approach::kProposed, core::Approach::kSoaBalancing}) {
    const datacenter::FleetInterval plan = plan_for(approach, workloads);
    const cooling::RackCoolingState& cooling = plan.racks[0].cooling;
    std::cout << "--- " << core::to_string(approach) << " ---\n";
    util::TablePrinter table({"server", "config", "idle", "P [W]",
                              "max T_w [C]", "die max @rack T_w [C]"});
    for (const datacenter::JobOutcome& job : plan.jobs) {
      table.add_row({job.benchmark, job.decision.point.config.label(),
                     power::to_string(job.decision.idle_state),
                     util::TablePrinter::fmt(job.package_power_w, 1),
                     util::TablePrinter::fmt(job.max_supply_temp_c, 0),
                     util::TablePrinter::fmt(job.die_max_c, 1)});
    }
    table.print(std::cout);
    std::cout << "rack water setpoint : " << cooling.supply_temp_c
              << " C (minimum over servers)\n"
              << "loop return         : "
              << util::TablePrinter::fmt(cooling.return_temp_c, 1)
              << " C, total heat "
              << util::TablePrinter::fmt(cooling.total_heat_w, 0) << " W\n"
              << "chiller lift power  : "
              << util::TablePrinter::fmt(cooling.chiller_lift_power_w, 1)
              << " W (Eq. 1)\n"
              << "chiller electrical  : "
              << util::TablePrinter::fmt(cooling.chiller_electrical_w, 1)
              << " W (COP model)\n\n";
  }

  std::cout << "the proposed pipeline schedules cooler servers, so the shared"
               " setpoint stays\nhigher and the chiller runs closer to free "
               "cooling (paper SVIII-B).\n";
  return 0;
}
