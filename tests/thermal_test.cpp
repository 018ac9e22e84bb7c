// Tests for tpcool::thermal — stack construction, the finite-volume model
// (analytic 1D checks, energy conservation, symmetry), the transient solver,
// and the thermal metrics.

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <limits>
#include <vector>

#include "tpcool/thermal/grid.hpp"
#include "tpcool/thermal/metrics.hpp"
#include "tpcool/thermal/stack.hpp"
#include "tpcool/util/error.hpp"

namespace tpcool::thermal {
namespace {

using floorplan::GridSpec;
using floorplan::Rect;
using util::Grid2D;

/// A simple uniform two-layer slab stack for analytic checks.
StackModel make_slab(std::size_t nx, std::size_t ny, double cell,
                     double k1 = 100.0, double k2 = 100.0) {
  StackModel model;
  model.grid.x0 = 0.0;
  model.grid.y0 = 0.0;
  model.grid.dx = cell;
  model.grid.dy = cell;
  model.grid.nx = nx;
  model.grid.ny = ny;
  const auto layer = [&](const std::string& name, double thickness, double k) {
    StackLayer l;
    l.name = name;
    l.thickness_m = thickness;
    l.conductivity_w_mk = Grid2D<double>(nx, ny, k);
    l.vol_heat_cap_j_m3k = Grid2D<double>(nx, ny, 2.0e6);
    return l;
  };
  model.layers.push_back(layer("bottom", 1.0e-3, k1));
  model.layers.push_back(layer("top", 1.0e-3, k2));
  model.die_layer = 0;
  model.ihs_layer = 1;
  model.top_layer = 1;
  model.die_region = Rect{0.0, 0.0, nx * cell, ny * cell};
  model.evaporator_region = model.die_region;
  return model;
}

// ------------------------------------------------------------------ stack --

TEST(PackageStack, LayerOrderAndRegions) {
  const StackModel m = make_package_stack();
  ASSERT_EQ(m.layer_count(), 6u);
  EXPECT_EQ(m.layers[m.die_layer].name, "die");
  EXPECT_EQ(m.layers[m.ihs_layer].name, "ihs");
  EXPECT_EQ(m.layers[m.top_layer].name, "evaporator_base");
  EXPECT_LT(m.die_layer, m.ihs_layer);
  EXPECT_LT(m.ihs_layer, m.top_layer);
  // Die centred inside the evaporator footprint, which is inside the grid.
  EXPECT_GT(m.die_region.x0, m.evaporator_region.x0);
  EXPECT_LT(m.die_region.x1, m.evaporator_region.x1);
  EXPECT_GE(m.evaporator_region.x0, 0.0);
  EXPECT_LE(m.evaporator_region.x1, m.grid.width() + 1e-12);
}

TEST(PackageStack, DieLayerBlendsSiliconAndFiller) {
  const StackModel m = make_package_stack();
  const StackLayer& die = m.layers[m.die_layer];
  // Centre cell: silicon; far corner: filler.
  const double centre_k =
      die.conductivity_w_mk(m.grid.nx / 2, m.grid.ny / 2);
  const double corner_k = die.conductivity_w_mk(0, 0);
  EXPECT_NEAR(centre_k, 130.0, 1.0);
  EXPECT_LT(corner_k, 5.0);
}

TEST(PackageStack, GridCoversPackage) {
  const PackageStackConfig config;
  const StackModel m = make_package_stack(config);
  EXPECT_NEAR(m.grid.width(), config.geometry.package_width_m, 1e-9);
  EXPECT_NEAR(m.grid.height(), config.geometry.package_height_m, 1e-9);
}

TEST(PackageStack, RejectsOversizedEvaporator) {
  PackageStackConfig config;
  config.evaporator_width_m = 50e-3;  // > package width
  EXPECT_THROW(make_package_stack(config), util::PreconditionError);
}

TEST(PackageStack, RejectsCellCountsThatDoNotFit) {
  // 45 mm / 1e-300 m is ~4.5e298 cells per side: no std::size_t holds it,
  // so the count is refused before it is cast.  An infinite pitch gives no
  // cell at all.
  PackageStackConfig config;
  config.cell_size_m = 1e-300;
  EXPECT_THROW(make_package_stack(config), util::PreconditionError);
  config.cell_size_m = std::numeric_limits<double>::infinity();
  EXPECT_THROW(make_package_stack(config), util::PreconditionError);
}

// ---------------------------------------------------- steady-state solver --

TEST(SteadySolver, Uniform1dAnalytic) {
  // Uniform flux q'' through a two-layer slab into a top HTC h:
  //   T_bottom_mid - T_fluid = q''·(d1/2/k1 + d2/k2 + 1/h)
  const double cell = 1e-3;
  ThermalModel model(make_slab(8, 8, cell, 100.0, 50.0));
  const double h = 5000.0, t_fluid = 30.0;
  model.set_top_boundary_uniform(h, t_fluid);
  model.set_bottom_boundary(0.0, 0.0);  // adiabatic bottom

  const double q_flux = 1.0e5;  // W/m²
  Grid2D<double> power(8, 8, q_flux * cell * cell);
  model.set_power_map(power);

  const auto t = model.solve_steady();
  // Source sits at the bottom-layer cell centre: path = half bottom layer
  // + full top layer + film.
  const double expected =
      t_fluid + q_flux * (0.5e-3 / 100.0 + 1.0e-3 / 50.0 + 1.0 / h);
  EXPECT_NEAR(t[model.cell_index(4, 4, 0)], expected, 0.02);
}

TEST(SteadySolver, EnergyConservation) {
  ThermalModel model(make_slab(10, 10, 1e-3));
  model.set_top_boundary_uniform(3000.0, 25.0);
  model.set_bottom_boundary(0.0, 0.0);
  Grid2D<double> power(10, 10, 0.0);
  power(2, 3) = 5.0;
  power(7, 6) = 3.0;
  model.set_power_map(power);
  const auto t = model.solve_steady();
  // All 8 W must leave through the top.
  EXPECT_NEAR(model.top_heat_flow_w(t), 8.0, 1e-4);
  const auto qmap = model.top_heat_flow_map_w(t);
  EXPECT_NEAR(util::grid_sum(qmap), 8.0, 1e-4);
}

TEST(SteadySolver, EnergyLeavesThroughTopAndBottom) {
  ThermalModel model(make_slab(10, 10, 1e-3));
  model.set_top_boundary_uniform(3000.0, 25.0);
  model.set_bottom_boundary(500.0, 40.0);
  Grid2D<double> power(10, 10, 0.0);
  power(2, 3) = 5.0;
  power(7, 6) = 3.0;
  model.set_power_map(power);
  const auto t = model.solve_steady();
  const double bottom = model.bottom_heat_flow_w(t);
  EXPECT_GT(std::abs(bottom), 1e-3);  // the board path carries real heat
  EXPECT_NEAR(model.top_heat_flow_w(t) + bottom, 8.0, 1e-6);
}

TEST(SteadySolver, ToleranceBoundsTheResidual) {
  ThermalModel model(make_slab(10, 10, 1e-3));
  model.set_top_boundary_uniform(3000.0, 25.0);
  Grid2D<double> power(10, 10, 0.0);
  power(4, 4) = 6.0;
  model.set_power_map(power);
  (void)model.solve_steady({}, 1e-3);
  const util::CgResult loose = model.last_solve_stats();
  (void)model.solve_steady();
  const util::CgResult tight = model.last_solve_stats();
  EXPECT_LE(loose.residual, 1e-3);
  EXPECT_LE(tight.residual, ThermalModel::kSteadyTolerance);
  EXPECT_LT(loose.iterations, tight.iterations);
  EXPECT_THROW((void)model.solve_steady({}, 0.0), util::PreconditionError);
}

TEST(SteadySolver, SymmetricSourceGivesSymmetricField) {
  ThermalModel model(make_slab(9, 9, 1e-3));
  model.set_top_boundary_uniform(3000.0, 25.0);
  model.set_bottom_boundary(0.0, 0.0);
  Grid2D<double> power(9, 9, 0.0);
  power(4, 4) = 10.0;  // centre source
  model.set_power_map(power);
  const auto t = model.solve_steady();
  const auto field = model.layer_field(t, 0);
  for (std::size_t i = 0; i < 9; ++i) {
    for (std::size_t j = 0; j < 9; ++j) {
      EXPECT_NEAR(field(i, j), field(8 - i, j), 1e-5);
      EXPECT_NEAR(field(i, j), field(i, 8 - j), 1e-5);
      EXPECT_NEAR(field(i, j), field(j, i), 1e-5);
    }
  }
}

TEST(SteadySolver, HigherHtcCoolsMore) {
  ThermalModel model(make_slab(6, 6, 1e-3));
  model.set_bottom_boundary(0.0, 0.0);
  Grid2D<double> power(6, 6, 0.1);
  model.set_power_map(power);

  model.set_top_boundary_uniform(2000.0, 30.0);
  const double hot = model.layer_field(model.solve_steady(), 0)(3, 3);
  model.set_top_boundary_uniform(20000.0, 30.0);
  const double cold = model.layer_field(model.solve_steady(), 0)(3, 3);
  EXPECT_GT(hot, cold);
  EXPECT_GT(cold, 30.0);
}

TEST(SteadySolver, NoPowerRelaxesToFluidTemperature) {
  ThermalModel model(make_slab(5, 5, 1e-3));
  model.set_top_boundary_uniform(5000.0, 42.0);
  model.set_bottom_boundary(0.0, 0.0);
  model.set_power_map(Grid2D<double>(5, 5, 0.0));
  const auto t = model.solve_steady();
  for (const double v : t) EXPECT_NEAR(v, 42.0, 1e-6);
}

TEST(SteadySolver, RejectsBadInputs) {
  ThermalModel model(make_slab(4, 4, 1e-3));
  Grid2D<double> wrong(3, 3, 0.0);
  EXPECT_THROW(model.set_power_map(wrong), util::PreconditionError);
  Grid2D<double> negative(4, 4, -1.0);
  EXPECT_THROW(model.set_power_map(negative), util::PreconditionError);
  EXPECT_THROW(model.set_bottom_boundary(-5.0, 20.0),
               util::PreconditionError);
}

// ------------------------------------------------------- transient solver --

TEST(TransientSolver, ConvergesToSteadyState) {
  ThermalModel model(make_slab(6, 6, 1e-3));
  model.set_top_boundary_uniform(4000.0, 30.0);
  model.set_bottom_boundary(0.0, 0.0);
  Grid2D<double> power(6, 6, 0.2);
  model.set_power_map(power);

  const auto steady = model.solve_steady();
  std::vector<double> t(model.cell_count(), 30.0);
  for (int step = 0; step < 400; ++step) model.step_transient(t, 0.05);
  for (std::size_t i = 0; i < t.size(); ++i) {
    EXPECT_NEAR(t[i], steady[i], 0.05);
  }
}

TEST(TransientSolver, MonotoneHeatingFromCold) {
  ThermalModel model(make_slab(6, 6, 1e-3));
  model.set_top_boundary_uniform(4000.0, 30.0);
  model.set_bottom_boundary(0.0, 0.0);
  model.set_power_map(Grid2D<double>(6, 6, 0.2));
  std::vector<double> t(model.cell_count(), 30.0);
  double prev = 30.0;
  for (int step = 0; step < 10; ++step) {
    model.step_transient(t, 0.1);
    const double now = t[model.cell_index(3, 3, 0)];
    EXPECT_GE(now, prev - 1e-9);
    prev = now;
  }
  EXPECT_GT(prev, 30.0);
}

TEST(TransientSolver, LargeStepApproachesSteady) {
  // Backward Euler is L-stable: one huge step lands near steady state.
  ThermalModel model(make_slab(5, 5, 1e-3));
  model.set_top_boundary_uniform(4000.0, 30.0);
  model.set_bottom_boundary(0.0, 0.0);
  model.set_power_map(Grid2D<double>(5, 5, 0.1));
  const auto steady = model.solve_steady();
  std::vector<double> t(model.cell_count(), 30.0);
  model.step_transient(t, 1e6);
  for (std::size_t i = 0; i < t.size(); ++i) EXPECT_NEAR(t[i], steady[i], 0.01);
}

TEST(TransientSolver, SecondDerivativeNormVanishesAtEquilibrium) {
  ThermalModel model(make_slab(6, 6, 1e-3));
  model.set_top_boundary_uniform(4000.0, 30.0);
  model.set_bottom_boundary(0.0, 0.0);
  // No power and every cell at the fluid temperature: nothing moves (up to
  // round-off; the heating field below reads 5000 °C/s²).
  const std::vector<double> uniform(model.cell_count(), 30.0);
  EXPECT_NEAR(model.second_derivative_norm(uniform), 0.0, 1e-9);

  // Under power, the steady field is the equilibrium.
  model.set_power_map(Grid2D<double>(6, 6, 0.2));
  const double heating = model.second_derivative_norm(uniform);
  EXPECT_GT(heating, 0.0);
  EXPECT_LT(model.second_derivative_norm(model.solve_steady({}, 1e-13)),
            1e-9 * heating);

  EXPECT_THROW((void)model.second_derivative_norm(std::vector<double>(3)),
               util::PreconditionError);
}

TEST(TransientSolver, SecondDerivativeNormMatchesAFiniteDifference) {
  // Two tiny backward-Euler steps from a heating field: their second
  // difference (T2 − 2·T1 + T0) / h² approaches T''(0) as h → 0.
  ThermalModel model(make_slab(6, 6, 1e-3));
  model.set_top_boundary_uniform(4000.0, 30.0);
  model.set_bottom_boundary(0.0, 0.0);
  Grid2D<double> power(6, 6, 0.0);
  power(1, 2) = 0.3;
  power(4, 4) = 0.1;
  model.set_power_map(power);
  std::vector<double> t0(model.cell_count(), 30.0);
  for (std::size_t i = 0; i < t0.size(); ++i) {
    t0[i] += 0.5 * std::sin(0.9 * static_cast<double>(i));
  }
  constexpr double kStep = 1e-5;
  std::vector<double> t1 = t0;
  model.step_transient(t0, t1, kStep, 1e-14);
  std::vector<double> t2 = t1;
  model.step_transient(t1, t2, kStep, 1e-14);
  double difference = 0.0;
  for (std::size_t i = 0; i < t0.size(); ++i) {
    difference = std::max(
        difference, std::abs(t2[i] - 2.0 * t1[i] + t0[i]) / (kStep * kStep));
  }
  const double norm = model.second_derivative_norm(t0);
  EXPECT_GT(norm, 0.0);
  EXPECT_NEAR(difference / norm, 1.0, 0.02);
}

// ------------------------------------------------------ boundary updates --

/// A per-cell top boundary over an nx×ny grid: h and the fluid temperature
/// vary cell to cell.  With `footprint`, h = 0 (adiabatic) outside an inner
/// rectangle, as outside the evaporator.
TopBoundary patterned_boundary(std::size_t nx, std::size_t ny, double h0,
                               double fluid_c, bool footprint) {
  TopBoundary b;
  b.htc_w_m2k = Grid2D<double>(nx, ny, 0.0);
  b.fluid_temp_c = Grid2D<double>(nx, ny, fluid_c);
  for (std::size_t iy = 0; iy < ny; ++iy) {
    for (std::size_t ix = 0; ix < nx; ++ix) {
      const bool inside = ix >= 2 && ix + 2 < nx && iy >= 1 && iy + 1 < ny;
      if (inside || !footprint) {
        b.htc_w_m2k(ix, iy) =
            h0 * (1.0 + 0.37 * std::sin(0.7 * static_cast<double>(ix) +
                                        1.3 * static_cast<double>(iy)));
      }
      b.fluid_temp_c(ix, iy) =
          fluid_c + 0.011 * static_cast<double>(ix * iy);
    }
  }
  return b;
}

TEST(BoundaryUpdate, ResetBoundaryMatchesAFreshAssemblyBitwise) {
  // set_top_boundary rewrites only the top layer's diagonal and boundary
  // terms; set_bottom_boundary re-assembles the bands.  Either way, the
  // re-set model must solve exactly like a model assembled fresh under the
  // same boundaries, on the heterogeneous package stack.
  PackageStackConfig stack_config;
  stack_config.cell_size_m = 3.0e-3;
  const StackModel stack = make_package_stack(stack_config);
  const std::size_t nx = stack.grid.nx;
  const std::size_t ny = stack.grid.ny;
  Grid2D<double> power(nx, ny, 0.0);
  for (std::size_t iy = 0; iy < ny; ++iy) {
    for (std::size_t ix = 0; ix < nx; ++ix) {
      power(ix, iy) = 0.05 + 0.01 * static_cast<double>((7 * ix + 3 * iy) % 5);
    }
  }
  const TopBoundary b1 = patterned_boundary(nx, ny, 9000.0, 32.0, false);
  const TopBoundary b2 = patterned_boundary(nx, ny, 14000.0, 28.5, true);
  ASSERT_GT(b1.htc_w_m2k(0, 0), 0.0);
  ASSERT_EQ(b2.htc_w_m2k(0, 0), 0.0);  // a cell that turns adiabatic

  const auto expect_same_solves = [&](const ThermalModel& reused,
                                      const ThermalModel& fresh) {
    EXPECT_TRUE(reused.solve_steady() == fresh.solve_steady());
    std::vector<double> a(reused.cell_count(), 45.0);
    std::vector<double> b(fresh.cell_count(), 45.0);
    reused.step_transient(a, 0.02);
    fresh.step_transient(b, 0.02);
    EXPECT_TRUE(a == b);
  };
  const auto fresh_model = [&](const TopBoundary& top, double bottom_htc,
                               double ambient_c) {
    ThermalModel model(stack);
    model.set_power_map(power);
    model.set_bottom_boundary(bottom_htc, ambient_c);
    model.set_top_boundary(top);
    return model;
  };

  ThermalModel reused(stack);
  reused.set_power_map(power);
  reused.set_bottom_boundary(10.0, 40.0);
  reused.set_top_boundary(b1);
  (void)reused.solve_steady();  // assemble both parts and the step operator
  std::vector<double> t(reused.cell_count(), 40.0);
  reused.step_transient(t, 0.01);

  {
    SCOPED_TRACE("top boundary re-set");
    reused.set_top_boundary(b2);
    expect_same_solves(reused, fresh_model(b2, 10.0, 40.0));
  }
  {
    SCOPED_TRACE("bottom boundary re-set");
    reused.set_bottom_boundary(25.0, 35.0);
    expect_same_solves(reused, fresh_model(b2, 25.0, 35.0));
  }
  {
    SCOPED_TRACE("top boundary re-set after a bottom re-set");
    reused.set_top_boundary(b1);
    expect_same_solves(reused, fresh_model(b1, 25.0, 35.0));
  }
}

// ---------------------------------------------------------------- metrics --

TEST(Metrics, MaxAvgAndGradient) {
  GridSpec grid{0.0, 0.0, 1e-3, 1e-3, 4, 4};
  Grid2D<double> field(4, 4, 50.0);
  field(1, 1) = 60.0;
  const Rect region{0.0, 0.0, 4e-3, 4e-3};
  const ThermalMetrics m = compute_metrics(field, grid, region);
  EXPECT_DOUBLE_EQ(m.max_c, 60.0);
  EXPECT_NEAR(m.avg_c, (15 * 50.0 + 60.0) / 16.0, 1e-12);
  // Steepest neighbour difference: 10 °C over 1 mm.
  EXPECT_DOUBLE_EQ(m.grad_max_c_per_mm, 10.0);
  EXPECT_EQ(m.cell_count, 16u);
  EXPECT_EQ(m.hotspot_cells, 1u);  // only the 60° cell within 2° of max
}

TEST(Metrics, RegionRestriction) {
  GridSpec grid{0.0, 0.0, 1e-3, 1e-3, 4, 4};
  Grid2D<double> field(4, 4, 50.0);
  field(3, 3) = 99.0;  // outside the region below
  const Rect region{0.0, 0.0, 2e-3, 2e-3};
  const ThermalMetrics m = compute_metrics(field, grid, region);
  EXPECT_DOUBLE_EQ(m.max_c, 50.0);
  EXPECT_EQ(m.cell_count, 4u);
}

TEST(Metrics, EmptyRegionThrows) {
  GridSpec grid{0.0, 0.0, 1e-3, 1e-3, 4, 4};
  Grid2D<double> field(4, 4, 50.0);
  const Rect region{10e-3, 10e-3, 11e-3, 11e-3};
  EXPECT_THROW((void)compute_metrics(field, grid, region), util::PreconditionError);
}

TEST(Metrics, SampleFieldBilinear) {
  GridSpec grid{0.0, 0.0, 1e-3, 1e-3, 2, 2};
  Grid2D<double> field(2, 2);
  field(0, 0) = 0.0;
  field(1, 0) = 10.0;
  field(0, 1) = 20.0;
  field(1, 1) = 30.0;
  // Centre of the grid = average of the four cell centres.
  EXPECT_NEAR(sample_field(field, grid, 1e-3, 1e-3), 15.0, 1e-9);
  // At a cell centre the sample equals the cell value.
  EXPECT_NEAR(sample_field(field, grid, 0.5e-3, 0.5e-3), 0.0, 1e-9);
}

TEST(Metrics, CaseTemperatureIsPackageCentre) {
  GridSpec grid{0.0, 0.0, 1e-3, 1e-3, 5, 5};
  Grid2D<double> field(5, 5, 40.0);
  field(2, 2) = 55.0;
  const Rect package{0.0, 0.0, 5e-3, 5e-3};
  EXPECT_NEAR(case_temperature(field, grid, package), 55.0, 1e-9);
}

}  // namespace
}  // namespace tpcool::thermal
