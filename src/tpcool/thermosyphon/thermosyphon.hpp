#pragma once
/// \file thermosyphon.hpp
/// \brief The complete two-phase thermosyphon model: given a heat map into
///        the evaporator and a coolant operating point, compute the loop
///        state and the per-cell heat-transfer coefficient map that the
///        thermal solver uses as its top boundary condition.

#include <cstddef>
#include <vector>

#include "tpcool/floorplan/power_map.hpp"
#include "tpcool/materials/refrigerant.hpp"
#include "tpcool/materials/water.hpp"
#include "tpcool/thermosyphon/channel.hpp"
#include "tpcool/thermosyphon/condenser.hpp"
#include "tpcool/thermosyphon/geometry.hpp"
#include "tpcool/thermosyphon/loop.hpp"
#include "tpcool/util/grid2d.hpp"

namespace tpcool::thermosyphon {

/// Design-time parameters (fixed once the device is manufactured, §VI).
struct ThermosyphonDesign {
  EvaporatorGeometry evaporator;
  const materials::Refrigerant* refrigerant = &materials::r236fa();
  double filling_ratio = 0.55;   ///< Paper's selected charge for R236fa.
  CondenserDesign condenser;
  LoopDesign loop;
};

/// Runtime-adjustable parameters (valve + chiller setpoint, §VI-C).
struct OperatingPoint {
  double water_flow_kg_h = 7.0;   ///< Paper's design flow rate.
  double water_inlet_c = 30.0;    ///< Paper's design water temperature.
};

/// Converged thermosyphon state for one heat map.
struct ThermosyphonState {
  double t_sat_c = 0.0;                ///< Loop saturation temperature.
  double refrigerant_flow_kg_s = 0.0;
  double loop_exit_quality = 0.0;
  double water_outlet_c = 0.0;
  double q_total_w = 0.0;
  util::Grid2D<double> htc_map;        ///< Per-cell top HTC [W/m²K].
  util::Grid2D<double> fluid_temp_map; ///< Per-cell fluid temperature [°C].
  std::vector<ChannelSummary> channels;
  bool any_dryout = false;
};

/// Thermosyphon bound to a thermal-grid footprint.
///
/// Construction fixes the design, the package-plane grid, and the evaporator
/// footprint rectangle (package coordinates). `solve()` may then be called
/// with any heat map on that grid.
class Thermosyphon {
 public:
  Thermosyphon(ThermosyphonDesign design, floorplan::GridSpec grid,
               floorplan::Rect footprint);

  [[nodiscard]] const ThermosyphonDesign& design() const noexcept {
    return design_;
  }
  [[nodiscard]] const floorplan::Rect& footprint() const noexcept {
    return footprint_;
  }

  /// Solve the loop for `heat_w` (W per grid cell entering the evaporator;
  /// cells outside the footprint must carry no heat).
  [[nodiscard]] ThermosyphonState solve(const util::Grid2D<double>& heat_w,
                                        const OperatingPoint& op) const;

 private:
  /// Marks a grid column or row whose cell centres lie outside the
  /// footprint.
  static constexpr std::size_t kOutside = static_cast<std::size_t>(-1);

  ThermosyphonDesign design_;
  floorplan::GridSpec grid_;
  floorplan::Rect footprint_;
  std::size_t n_channels_;
  std::size_t n_segments_;
  // A cell belongs to the channel and segment its centre falls in.  The
  // centre's x picks one of the two and its y the other, so the route
  // splits per axis: cell (ix, iy) is in the footprint when neither
  // x_slot_[ix] nor y_slot_[iy] is kOutside, and then its slot in the
  // channel-major (channel, segment) arrays is x_slot_[ix] + y_slot_[iy].
  // Built in O(nx + ny); a per-cell table would cost O(nx · ny) per
  // construction for the same lookups.
  std::vector<std::size_t> x_slot_;
  std::vector<std::size_t> y_slot_;
};

}  // namespace tpcool::thermosyphon
