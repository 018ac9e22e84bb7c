#include "tpcool/floorplan/xeon_e5.hpp"

#include <string>

#include "tpcool/util/error.hpp"

namespace tpcool::floorplan {

Floorplan make_xeon_e5_floorplan(const XeonE5Geometry& geometry) {
  TPCOOL_REQUIRE(geometry.core_count == 8 && geometry.core_rows == 4 &&
                     geometry.core_columns == 2,
                 "the Fig. 2c builder models the 8-core LCC die");

  const double w = geometry.die_width_m;
  const double h = geometry.die_height_m;

  // South strips (full die width).
  const double uncore_h = 1.0e-3;   // queue / uncore / IO controller
  const double memctl_h = 0.8e-3;   // memory controller
  const double body_y0 = uncore_h + memctl_h;

  // Core columns on the west side.
  const double core_w = 4.2e-3;
  const double body_h = h - body_y0;          // 11.4 mm
  const double slot_h = body_h / 5.0;         // 4 cores + 1 reserved slot

  std::vector<Unit> units;

  const auto add_column = [&](int column, int first_core_id) {
    const double x0 = column * core_w;
    const double x1 = x0 + core_w;
    // Row 0 is the northernmost core; the reserved slot sits at the bottom.
    for (int row = 0; row < 4; ++row) {
      const double y1 = h - row * slot_h;
      const double y0 = y1 - slot_h;
      const int id = first_core_id + row;
      units.push_back(Unit{"core" + std::to_string(id), UnitType::kCore,
                           Rect{x0, y0, x1, y1}, id});
    }
    units.push_back(Unit{"reserved_col" + std::to_string(column),
                         UnitType::kReserved,
                         Rect{x0, body_y0, x1, body_y0 + slot_h}, 0});
  };

  // Paper numbering (Fig. 2c): west column holds cores 5..8 top-to-bottom,
  // the next column holds cores 1..4.
  add_column(0, 5);
  add_column(1, 1);

  // LLC block east of the cores.
  const double llc_x0 = 2.0 * core_w;           // 8.4 mm
  const double llc_x1 = 15.0e-3;
  units.push_back(Unit{"llc", UnitType::kCache,
                       Rect{llc_x0, body_y0, llc_x1, h}, 0});

  // Dead area on the far east of the die ("produces no power", §VI-A).
  units.push_back(Unit{"reserved_east", UnitType::kReserved,
                       Rect{llc_x1, body_y0, w, h}, 0});

  // South strips.
  units.push_back(Unit{"memctrl", UnitType::kMemoryController,
                       Rect{0.0, uncore_h, w, body_y0}, 0});
  units.push_back(Unit{"uncore_io", UnitType::kUncore,
                       Rect{0.0, 0.0, w, uncore_h}, 0});

  return Floorplan(w, h, std::move(units));
}

}  // namespace tpcool::floorplan
