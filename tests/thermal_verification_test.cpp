// Verification of the steady thermal operator against a manufactured
// solution (Roache 2002, *J. Fluids Eng.* 124(1)): the observed order of
// the max-norm error under grid refinement.  One material for now; the
// layered stack with its interface conductances is the open half.

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <numbers>
#include <string>
#include <utility>
#include <vector>

#include "tpcool/thermal/grid.hpp"
#include "tpcool/thermal/stack.hpp"
#include "tpcool/util/grid2d.hpp"

namespace tpcool::thermal {
namespace {

using util::Grid2D;

/// T = T0 + A·cos(πx/W)·cos(πy/H)·cosh(s·z) with s = π·√(1/W² + 1/H²) is
/// harmonic, so it needs no source.  Its x and y derivatives vanish on the
/// sides and its z derivative on the bottom: all three are adiabatic.  The
/// top is a uniform Robin boundary whose fluid temperature is
/// T + (k/h)·∂T/∂z on the top face, so −k·∂T/∂z = h·(T − T_f) holds there.
struct Harmonic {
  static constexpr double kWidth = 10.0e-3;   // W [m]
  static constexpr double kHeight = 8.0e-3;   // H [m]
  static constexpr double kDepth = 2.0e-3;    // D [m]
  static constexpr double kConductivity = 100.0;  // k [W/(m·K)]
  static constexpr double kHtc = 1.0e4;           // h [W/(m²·K)]
  static constexpr double kBase = 40.0;           // T0 [°C]
  static constexpr double kAmplitude = 10.0;      // A [°C]

  [[nodiscard]] static double decay() {
    return std::numbers::pi *
           std::sqrt(1.0 / (kWidth * kWidth) + 1.0 / (kHeight * kHeight));
  }
  [[nodiscard]] static double plane(double x, double y) {
    return std::cos(std::numbers::pi * x / kWidth) *
           std::cos(std::numbers::pi * y / kHeight);
  }
  [[nodiscard]] static double temperature(double x, double y, double z) {
    return kBase + kAmplitude * plane(x, y) * std::cosh(decay() * z);
  }
  [[nodiscard]] static double dt_dz(double x, double y, double z) {
    return kAmplitude * plane(x, y) * decay() * std::sinh(decay() * z);
  }
};

/// Max-norm error of the steady solve on 5n × 4n × n cubic cells.
double harmonic_error(std::size_t n) {
  const std::size_t nx = 5 * n, ny = 4 * n, nz = n;
  const double cell = Harmonic::kWidth / static_cast<double>(nx);
  StackModel stack;
  stack.grid.dx = cell;
  stack.grid.dy = cell;
  stack.grid.nx = nx;
  stack.grid.ny = ny;
  for (std::size_t iz = 0; iz < nz; ++iz) {
    StackLayer layer;
    layer.name = "layer" + std::to_string(iz);
    layer.thickness_m = Harmonic::kDepth / static_cast<double>(nz);
    layer.conductivity_w_mk = Grid2D<double>(nx, ny, Harmonic::kConductivity);
    layer.vol_heat_cap_j_m3k = Grid2D<double>(nx, ny, 2.0e6);
    stack.layers.push_back(std::move(layer));
  }
  stack.top_layer = nz - 1;
  ThermalModel model(stack);
  model.set_bottom_boundary(0.0, Harmonic::kBase);

  const auto centre = [&](std::size_t i) {
    return (static_cast<double>(i) + 0.5) * cell;
  };
  TopBoundary top;
  top.htc_w_m2k = Grid2D<double>(nx, ny, Harmonic::kHtc);
  top.fluid_temp_c = Grid2D<double>(nx, ny, 0.0);
  for (std::size_t iy = 0; iy < ny; ++iy) {
    for (std::size_t ix = 0; ix < nx; ++ix) {
      const double x = centre(ix), y = centre(iy), z = Harmonic::kDepth;
      top.fluid_temp_c(ix, iy) =
          Harmonic::temperature(x, y, z) +
          Harmonic::kConductivity / Harmonic::kHtc * Harmonic::dt_dz(x, y, z);
    }
  }
  model.set_top_boundary(std::move(top));

  const std::vector<double> t = model.solve_steady({}, 1e-12);
  double error = 0.0;
  for (std::size_t iz = 0; iz < nz; ++iz) {
    for (std::size_t iy = 0; iy < ny; ++iy) {
      for (std::size_t ix = 0; ix < nx; ++ix) {
        const double exact =
            Harmonic::temperature(centre(ix), centre(iy), centre(iz));
        error = std::max(error,
                         std::abs(t[model.cell_index(ix, iy, iz)] - exact));
      }
    }
  }
  return error;
}

TEST(ThermalVerification, SingleMaterialHarmonicIsSecondOrder) {
  const double coarse = harmonic_error(4);
  const double medium = harmonic_error(8);
  const double fine = harmonic_error(16);
  // Measured: 4.2e-2, 1.07e-2 and 2.7e-3 °C, so orders 1.98 and 2.00.
  EXPECT_LT(medium, coarse);
  EXPECT_GE(std::log2(medium / fine), 1.8)
      << coarse << " -> " << medium << " -> " << fine;
}

}  // namespace
}  // namespace tpcool::thermal
