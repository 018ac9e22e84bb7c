#include "tpcool/cooling/rack.hpp"

#include <algorithm>

#include "tpcool/util/error.hpp"

namespace tpcool::cooling {

RackCoolingState solve_rack_cooling(const std::vector<ServerDemand>& demands,
                                    const ChillerModel& chiller) {
  TPCOOL_REQUIRE(!demands.empty(), "rack has no servers");
  double setpoint_c = kDefaultMaxSetpointC;
  for (const ServerDemand& d : demands) {
    setpoint_c = std::min(setpoint_c, d.max_supply_temp_c);
  }
  return solve_rack_cooling_at(demands, chiller, setpoint_c);
}

RackCoolingState solve_rack_cooling_at(const std::vector<ServerDemand>& demands,
                                       const ChillerModel& chiller,
                                       double setpoint_c) {
  TPCOOL_REQUIRE(!demands.empty(), "rack has no servers");
  RackCoolingState state;

  state.supply_temp_c = setpoint_c;
  for (const ServerDemand& d : demands) {
    TPCOOL_REQUIRE(d.flow_kg_h > 0.0, "server branch needs positive flow");
  }

  std::vector<CoolantBranch> branches;
  branches.reserve(demands.size());
  for (const ServerDemand& d : demands) {
    branches.push_back({d.flow_kg_h, d.heat_load_w});
    state.total_flow_kg_h += d.flow_kg_h;
    state.total_heat_w += d.heat_load_w;
  }
  state.return_temp_c = mixed_return_c(branches.data(),
                                       static_cast<unsigned>(branches.size()),
                                       state.supply_temp_c);

  state.chiller_lift_power_w = thermal_lift_power_w(
      state.total_flow_kg_h, state.return_temp_c - state.supply_temp_c,
      state.return_temp_c);
  state.chiller_electrical_w =
      chiller.electrical_power_w(state.total_heat_w, state.supply_temp_c);
  return state;
}

}  // namespace tpcool::cooling
