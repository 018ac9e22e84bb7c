#pragma once
/// \file rack.hpp
/// \brief Rack-level coolant coordination: one chiller per rack means every
///        thermosyphon shares the same water supply temperature (§V); the
///        rack supply must satisfy the most demanding server.

#include <vector>

#include "tpcool/cooling/chiller.hpp"
#include "tpcool/cooling/coolant_loop.hpp"

namespace tpcool::cooling {

/// Cooling demand of one server as seen by the rack loop.
struct ServerDemand {
  double heat_load_w = 0.0;          ///< Condenser heat load.
  double max_supply_temp_c = 30.0;   ///< Highest water temp keeping TCASE ok.
  double flow_kg_h = 7.0;            ///< Valve setting.
};

/// Aggregated rack cooling state.
struct RackCoolingState {
  double supply_temp_c = 0.0;   ///< Shared setpoint (min over servers).
  double return_temp_c = 0.0;   ///< Mixed return to the chiller.
  double total_flow_kg_h = 0.0;
  double total_heat_w = 0.0;
  double chiller_lift_power_w = 0.0;  ///< Paper Eq. (1) accounting.
  double chiller_electrical_w = 0.0;  ///< COP-model electrical power.
};

/// The ceiling on a rack's shared water setpoint.
inline constexpr double kDefaultMaxSetpointC = 45.0;

/// Compute the shared-loop state for a set of server demands.
/// The supply setpoint is the minimum of the per-server maxima (every
/// thermosyphon must stay feasible), never above `kDefaultMaxSetpointC`.
/// This is the one place the §V shared-setpoint rule lives.
[[nodiscard]] RackCoolingState solve_rack_cooling(
    const std::vector<ServerDemand>& demands, const ChillerModel& chiller);

/// Compute the shared-loop state at a *forced* setpoint (a fleet
/// controller's biased operating point).  Same downstream arithmetic as
/// `solve_rack_cooling` — forcing the natural setpoint reproduces its
/// result bit for bit.  The caller owns feasibility: a setpoint above a
/// server's `max_supply_temp_c` is accepted and simply runs that server
/// hot (the fleet layer counts the violation).
[[nodiscard]] RackCoolingState solve_rack_cooling_at(
    const std::vector<ServerDemand>& demands, const ChillerModel& chiller,
    double setpoint_c);

}  // namespace tpcool::cooling
