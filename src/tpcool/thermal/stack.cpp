#include "tpcool/thermal/stack.hpp"

#include <cmath>
#include <cstddef>
#include <limits>

#include "tpcool/util/error.hpp"

namespace tpcool::thermal {

namespace {

using floorplan::GridSpec;
using floorplan::Rect;
using materials::SolidMaterial;

/// Cells covering `extent_m` at pitch `cell_size_m`.  Casting a value
/// std::size_t cannot hold (inf, NaN, >= 2^64) is UB: check the fit first.
std::size_t cells_covering(double extent_m, double cell_size_m) {
  const double cells = std::ceil(extent_m / cell_size_m);
  TPCOOL_REQUIRE(
      cells >= 1.0 &&
          cells < static_cast<double>(std::numeric_limits<std::size_t>::max()),
      "grid cell count (package extent / cell size) must be at least 1 and "
      "fit std::size_t");
  return static_cast<std::size_t>(cells);
}

/// Uniform layer over the full grid.
StackLayer uniform_layer(const std::string& name, double thickness,
                         const SolidMaterial& mat, const GridSpec& grid) {
  StackLayer layer;
  layer.name = name;
  layer.thickness_m = thickness;
  layer.conductivity_w_mk =
      util::Grid2D<double>(grid.nx, grid.ny, mat.conductivity_w_mk);
  layer.vol_heat_cap_j_m3k =
      util::Grid2D<double>(grid.nx, grid.ny, mat.volumetric_heat_capacity());
  return layer;
}

/// Layer whose material is `inner` inside `region` and `outer` elsewhere.
/// A cell takes the area-weighted blend of the two materials so the model is
/// insensitive to whether the region boundary falls on a cell edge.
StackLayer region_layer(const std::string& name, double thickness,
                        const SolidMaterial& inner, const SolidMaterial& outer,
                        const Rect& region, const GridSpec& grid) {
  StackLayer layer = uniform_layer(name, thickness, outer, grid);
  for (std::size_t iy = 0; iy < grid.ny; ++iy) {
    for (std::size_t ix = 0; ix < grid.nx; ++ix) {
      const Rect cell = grid.cell_rect(ix, iy);
      const double frac = region.overlap_area(cell) / cell.area();
      if (frac <= 0.0) continue;
      layer.conductivity_w_mk(ix, iy) =
          frac * inner.conductivity_w_mk + (1.0 - frac) * outer.conductivity_w_mk;
      layer.vol_heat_cap_j_m3k(ix, iy) =
          frac * inner.volumetric_heat_capacity() +
          (1.0 - frac) * outer.volumetric_heat_capacity();
    }
  }
  return layer;
}

}  // namespace

StackModel make_package_stack(const PackageStackConfig& config) {
  TPCOOL_REQUIRE(config.cell_size_m > 0.0, "cell size must be positive");
  TPCOOL_REQUIRE(
      config.evaporator_width_m <= config.geometry.package_width_m &&
          config.evaporator_height_m <= config.geometry.package_height_m,
      "evaporator footprint must fit on the package");
  TPCOOL_REQUIRE(config.geometry.die_width_m < config.evaporator_width_m &&
                     config.geometry.die_height_m < config.evaporator_height_m,
                 "die must sit under the evaporator footprint");

  StackModel model;

  // Grid spans the package; round the cell count up so the grid covers it.
  GridSpec grid;
  grid.x0 = 0.0;
  grid.y0 = 0.0;
  grid.nx = cells_covering(config.geometry.package_width_m, config.cell_size_m);
  grid.ny =
      cells_covering(config.geometry.package_height_m, config.cell_size_m);
  grid.dx = config.geometry.package_width_m / static_cast<double>(grid.nx);
  grid.dy = config.geometry.package_height_m / static_cast<double>(grid.ny);
  model.grid = grid;

  // Centre the die and the evaporator on the package.
  model.die_offset_x =
      0.5 * (config.geometry.package_width_m - config.geometry.die_width_m);
  model.die_offset_y =
      0.5 * (config.geometry.package_height_m - config.geometry.die_height_m);
  model.die_region = Rect{model.die_offset_x, model.die_offset_y,
                          model.die_offset_x + config.geometry.die_width_m,
                          model.die_offset_y + config.geometry.die_height_m};
  const double ex0 =
      0.5 * (config.geometry.package_width_m - config.evaporator_width_m);
  const double ey0 =
      0.5 * (config.geometry.package_height_m - config.evaporator_height_m);
  model.evaporator_region = Rect{ex0, ey0, ex0 + config.evaporator_width_m,
                                 ey0 + config.evaporator_height_m};

  model.layers.push_back(uniform_layer("substrate",
                                       config.substrate_thickness_m,
                                       materials::package_substrate(), grid));
  model.layers.push_back(region_layer("die", config.die_thickness_m,
                                      materials::silicon(),
                                      materials::gap_filler(),
                                      model.die_region, grid));
  model.die_layer = model.layers.size() - 1;
  model.layers.push_back(region_layer("tim1", config.tim1_thickness_m,
                                      materials::tim_high_performance(),
                                      materials::gap_filler(),
                                      model.die_region, grid));
  model.layers.push_back(uniform_layer("ihs", config.ihs_thickness_m,
                                       materials::copper(), grid));
  model.ihs_layer = model.layers.size() - 1;
  model.layers.push_back(region_layer("tim2", config.tim2_thickness_m,
                                      materials::tim_grease(),
                                      materials::gap_filler(),
                                      model.evaporator_region, grid));
  model.layers.push_back(region_layer("evaporator_base",
                                      config.evaporator_base_thickness_m,
                                      materials::copper(),
                                      materials::gap_filler(),
                                      model.evaporator_region, grid));
  model.top_layer = model.layers.size() - 1;

  return model;
}

}  // namespace tpcool::thermal
