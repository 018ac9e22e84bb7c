#pragma once
/// \file xeon_e5.hpp
/// \brief Intel Xeon E5 v4 (Broadwell-EP, 8-core LCC) die floorplan used by
///        the paper (Fig. 2c) and its package geometry.

#include "tpcool/floorplan/floorplan.hpp"

namespace tpcool::floorplan {

/// Geometry constants of the modelled platform.
struct XeonE5Geometry {
  double die_width_m = 18.6e-3;   ///< Die is 18.6 × 13.2 mm ≈ 246 mm².
  double die_height_m = 13.2e-3;
  double package_width_m = 45.0e-3;   ///< LGA2011-3 package outline.
  double package_height_m = 42.5e-3;
  int core_count = 8;
  int core_rows = 4;     ///< Cores arranged 2 columns × 4 rows.
  int core_columns = 2;
};

/// Build the Fig. 2c floorplan:
///  - two western columns of four cores each (Core5..8 west, Core1..4 east
///    of them), with a fused-off "reserved" core slot at the bottom of each
///    column (the die is a derated deca-core design),
///  - the 25 MB LLC block east of the cores,
///  - a dead (reserved) region on the far east of the die,
///  - memory-controller and queue/uncore/IO strips along the south edge.
[[nodiscard]] Floorplan make_xeon_e5_floorplan(
    const XeonE5Geometry& geometry = {});

}  // namespace tpcool::floorplan
