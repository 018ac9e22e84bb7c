#include "tpcool/thermal/grid.hpp"

#include <cmath>

#include "tpcool/util/error.hpp"

namespace tpcool::thermal {

namespace {

/// Series conductance of two half-cells meeting at an interface (harmonic
/// mean, the standard finite-volume interface treatment).
double series(double g1, double g2) {
  TPCOOL_ENSURE(g1 > 0.0 && g2 > 0.0, "non-positive conductance");
  return 1.0 / (1.0 / g1 + 1.0 / g2);
}

}  // namespace

ThermalModel::ThermalModel(StackModel stack) : stack_(std::move(stack)) {
  TPCOOL_REQUIRE(stack_.layer_count() >= 2, "stack needs at least two layers");
  for (const StackLayer& layer : stack_.layers) {
    TPCOOL_REQUIRE(layer.thickness_m > 0.0, "layer thickness must be positive");
    TPCOOL_REQUIRE(layer.conductivity_w_mk.nx() == stack_.grid.nx &&
                       layer.conductivity_w_mk.ny() == stack_.grid.ny,
                   "layer grid mismatch");
  }
  power_w_ = util::Grid2D<double>(nx(), ny(), 0.0);
  top_.htc_w_m2k = util::Grid2D<double>(nx(), ny(), 0.0);
  top_.fluid_temp_c = util::Grid2D<double>(nx(), ny(), 0.0);
}

void ThermalModel::set_power_map(const util::Grid2D<double>& watts) {
  TPCOOL_REQUIRE(watts.nx() == nx() && watts.ny() == ny(),
                 "power map grid mismatch");
  for (const double w : watts.data()) {
    TPCOOL_REQUIRE(w >= 0.0, "negative cell power");
  }
  power_w_ = watts;
  // Sources only enter the RHS; the assembled operator stays valid.
}

void ThermalModel::set_top_boundary(TopBoundary boundary) {
  TPCOOL_REQUIRE(boundary.htc_w_m2k.nx() == nx() &&
                     boundary.htc_w_m2k.ny() == ny() &&
                     boundary.fluid_temp_c.same_shape(boundary.htc_w_m2k),
                 "top boundary grid mismatch");
  for (const double h : boundary.htc_w_m2k.data()) {
    TPCOOL_REQUIRE(h >= 0.0, "negative HTC");
  }
  top_ = std::move(boundary);
  top_dirty_ = true;  // the bands stay valid
}

void ThermalModel::set_top_boundary_uniform(double htc_w_m2k,
                                            double fluid_temp_c) {
  TopBoundary b;
  b.htc_w_m2k = util::Grid2D<double>(nx(), ny(), htc_w_m2k);
  b.fluid_temp_c = util::Grid2D<double>(nx(), ny(), fluid_temp_c);
  set_top_boundary(std::move(b));
}

void ThermalModel::set_bottom_boundary(double htc_w_m2k, double ambient_c) {
  TPCOOL_REQUIRE(htc_w_m2k >= 0.0, "negative HTC");
  bottom_htc_w_m2k_ = htc_w_m2k;
  bottom_ambient_c_ = ambient_c;
  dirty_ = true;
}

void ThermalModel::assemble() const {
  if (dirty_) assemble_conductances();
  if (top_dirty_) assemble_top_boundary();
}

void ThermalModel::assemble_conductances() const {
  const std::size_t n = cell_count();
  util::StencilOperator m(nx(), ny(), nz());
  boundary_rhs_.assign(n, 0.0);

  const double dx = stack_.grid.dx;
  const double dy = stack_.grid.dy;
  const double cell_area = dx * dy;

  const auto k_of = [&](std::size_t ix, std::size_t iy, std::size_t iz) {
    return stack_.layers[iz].conductivity_w_mk(ix, iy);
  };
  const auto dz_of = [&](std::size_t iz) {
    return stack_.layers[iz].thickness_m;
  };

  for (std::size_t iz = 0; iz < nz(); ++iz) {
    const double dz = dz_of(iz);
    for (std::size_t iy = 0; iy < ny(); ++iy) {
      for (std::size_t ix = 0; ix < nx(); ++ix) {
        const std::size_t self = cell_index(ix, iy, iz);

        if (ix + 1 < nx()) {  // east neighbour
          const double g =
              series(k_of(ix, iy, iz) * (dy * dz) / (0.5 * dx),
                     k_of(ix + 1, iy, iz) * (dy * dz) / (0.5 * dx));
          m.add_coupling(self, util::StencilBand::kXPlus, g);
        }
        if (iy + 1 < ny()) {  // north neighbour
          const double g =
              series(k_of(ix, iy, iz) * (dx * dz) / (0.5 * dy),
                     k_of(ix, iy + 1, iz) * (dx * dz) / (0.5 * dy));
          m.add_coupling(self, util::StencilBand::kYPlus, g);
        }
        if (iz + 1 < nz()) {  // layer above
          const double g =
              series(k_of(ix, iy, iz) * cell_area / (0.5 * dz),
                     k_of(ix, iy, iz + 1) * cell_area / (0.5 * dz_of(iz + 1)));
          m.add_coupling(self, util::StencilBand::kZPlus, g);
        }
        if (iz == 0 && bottom_htc_w_m2k_ > 0.0) {  // bottom boundary
          const double g = series(k_of(ix, iy, iz) * cell_area / (0.5 * dz),
                                  bottom_htc_w_m2k_ * cell_area);
          m.add_to_diagonal(self, g);
          boundary_rhs_[self] += g * bottom_ambient_c_;
        }
      }
    }
  }
  operator_ = std::move(m);
  step_operator_valid_ = false;
  dirty_ = false;
  top_dirty_ = true;
}

void ThermalModel::assemble_top_boundary() const {
  const double cell_area = stack_.grid.dx * stack_.grid.dy;
  const std::size_t iz = nz() - 1;  // never the bottom layer (nz >= 2)
  const double dz = stack_.layers[iz].thickness_m;
  using util::StencilBand;
  for (std::size_t iy = 0; iy < ny(); ++iy) {
    for (std::size_t ix = 0; ix < nx(); ++ix) {
      const std::size_t self = cell_index(ix, iy, iz);
      // A one-pass assembly sums this diagonal as 0 + g(z-) + g(y-) + g(x-)
      // + g(x+) + g(y+) + g_top: the order the cell loop reaches each
      // coupling.  Every band entry is exactly -g (0 at a grid edge), so
      // re-summing the bands in that order reproduces it bit for bit.
      double diag = 0.0;
      diag += -operator_.offdiag(self, StencilBand::kZMinus);
      diag += -operator_.offdiag(self, StencilBand::kYMinus);
      diag += -operator_.offdiag(self, StencilBand::kXMinus);
      diag += -operator_.offdiag(self, StencilBand::kXPlus);
      diag += -operator_.offdiag(self, StencilBand::kYPlus);
      boundary_rhs_[self] = 0.0;
      const double h = top_.htc_w_m2k(ix, iy);
      if (h > 0.0) {  // convective cell; h = 0 is adiabatic
        const double k = stack_.layers[iz].conductivity_w_mk(ix, iy);
        const double g = series(k * cell_area / (0.5 * dz), h * cell_area);
        diag += g;
        boundary_rhs_[self] += g * top_.fluid_temp_c(ix, iy);
      }
      operator_.set_diagonal(self, diag);
    }
  }
  top_dirty_ = false;
}

void ThermalModel::add_power(std::vector<double>& rhs) const {
  for (std::size_t iy = 0; iy < ny(); ++iy) {
    for (std::size_t ix = 0; ix < nx(); ++ix) {
      rhs[cell_index(ix, iy, stack_.die_layer)] += power_w_(ix, iy);
    }
  }
}

util::Grid2D<double> ThermalModel::layer_field(const std::vector<double>& t,
                                               std::size_t layer) const {
  TPCOOL_REQUIRE(layer < nz(), "layer index out of range");
  TPCOOL_REQUIRE(t.size() == cell_count(), "state vector size mismatch");
  util::Grid2D<double> field(nx(), ny());
  for (std::size_t iy = 0; iy < ny(); ++iy) {
    for (std::size_t ix = 0; ix < nx(); ++ix) {
      field(ix, iy) = t[cell_index(ix, iy, layer)];
    }
  }
  return field;
}

double ThermalModel::top_heat_flow_w(const std::vector<double>& t) const {
  TPCOOL_REQUIRE(t.size() == cell_count(), "state vector size mismatch");
  const double cell_area = stack_.grid.dx * stack_.grid.dy;
  const std::size_t iz = nz() - 1;
  const double dz = stack_.layers[iz].thickness_m;
  double q = 0.0;
  for (std::size_t iy = 0; iy < ny(); ++iy) {
    for (std::size_t ix = 0; ix < nx(); ++ix) {
      const double h = top_.htc_w_m2k(ix, iy);
      if (h <= 0.0) continue;
      const double k = stack_.layers[iz].conductivity_w_mk(ix, iy);
      const double g =
          1.0 / (0.5 * dz / (k * cell_area) + 1.0 / (h * cell_area));
      q += g * (t[cell_index(ix, iy, iz)] - top_.fluid_temp_c(ix, iy));
    }
  }
  return q;
}

double ThermalModel::bottom_heat_flow_w(const std::vector<double>& t) const {
  TPCOOL_REQUIRE(t.size() == cell_count(), "state vector size mismatch");
  if (bottom_htc_w_m2k_ <= 0.0) return 0.0;
  const double cell_area = stack_.grid.dx * stack_.grid.dy;
  const double dz = stack_.layers[0].thickness_m;
  double q = 0.0;
  for (std::size_t iy = 0; iy < ny(); ++iy) {
    for (std::size_t ix = 0; ix < nx(); ++ix) {
      const double k = stack_.layers[0].conductivity_w_mk(ix, iy);
      const double g = 1.0 / (0.5 * dz / (k * cell_area) +
                              1.0 / (bottom_htc_w_m2k_ * cell_area));
      q += g * (t[cell_index(ix, iy, 0)] - bottom_ambient_c_);
    }
  }
  return q;
}

util::Grid2D<double> ThermalModel::top_heat_flow_map_w(
    const std::vector<double>& t) const {
  TPCOOL_REQUIRE(t.size() == cell_count(), "state vector size mismatch");
  const double cell_area = stack_.grid.dx * stack_.grid.dy;
  const std::size_t iz = nz() - 1;
  const double dz = stack_.layers[iz].thickness_m;
  util::Grid2D<double> q(nx(), ny(), 0.0);
  for (std::size_t iy = 0; iy < ny(); ++iy) {
    for (std::size_t ix = 0; ix < nx(); ++ix) {
      const double h = top_.htc_w_m2k(ix, iy);
      if (h <= 0.0) continue;
      const double k = stack_.layers[iz].conductivity_w_mk(ix, iy);
      const double g =
          1.0 / (0.5 * dz / (k * cell_area) + 1.0 / (h * cell_area));
      q(ix, iy) = g * (t[cell_index(ix, iy, iz)] - top_.fluid_temp_c(ix, iy));
    }
  }
  return q;
}

}  // namespace tpcool::thermal
