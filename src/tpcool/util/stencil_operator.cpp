#include "tpcool/util/stencil_operator.hpp"

#include <algorithm>

namespace tpcool::util {

namespace {

StencilBand opposite(StencilBand band) {
  switch (band) {
    case StencilBand::kXMinus: return StencilBand::kXPlus;
    case StencilBand::kXPlus: return StencilBand::kXMinus;
    case StencilBand::kYMinus: return StencilBand::kYPlus;
    case StencilBand::kYPlus: return StencilBand::kYMinus;
    case StencilBand::kZMinus: return StencilBand::kZPlus;
    case StencilBand::kZPlus: return StencilBand::kZMinus;
  }
  TPCOOL_ENSURE(false, "invalid stencil band");
  return StencilBand::kXMinus;
}

}  // namespace

StencilOperator::StencilOperator(std::size_t nx, std::size_t ny,
                                 std::size_t nz)
    : nx_(nx), ny_(ny), nz_(nz) {
  TPCOOL_REQUIRE(nx > 0 && ny > 0 && nz > 0,
                 "stencil dimensions must be positive");
  const std::size_t n = nx * ny * nz;
  diag_.assign(n, 0.0);
  for (auto& band : bands_) band.assign(n, 0.0);
}

std::size_t StencilOperator::neighbor_index(std::size_t i,
                                            StencilBand band) const {
  const std::size_t ix = i % nx_;
  const std::size_t iy = (i / nx_) % ny_;
  const std::size_t iz = i / (nx_ * ny_);
  switch (band) {
    case StencilBand::kXMinus:
      TPCOOL_REQUIRE(ix > 0, "no x- neighbour at grid edge");
      return i - 1;
    case StencilBand::kXPlus:
      TPCOOL_REQUIRE(ix + 1 < nx_, "no x+ neighbour at grid edge");
      return i + 1;
    case StencilBand::kYMinus:
      TPCOOL_REQUIRE(iy > 0, "no y- neighbour at grid edge");
      return i - nx_;
    case StencilBand::kYPlus:
      TPCOOL_REQUIRE(iy + 1 < ny_, "no y+ neighbour at grid edge");
      return i + nx_;
    case StencilBand::kZMinus:
      TPCOOL_REQUIRE(iz > 0, "no z- neighbour at grid edge");
      return i - nx_ * ny_;
    case StencilBand::kZPlus:
      TPCOOL_REQUIRE(iz + 1 < nz_, "no z+ neighbour at grid edge");
      return i + nx_ * ny_;
  }
  TPCOOL_ENSURE(false, "invalid stencil band");
  return i;
}

void StencilOperator::add_coupling(std::size_t i, StencilBand band, double g) {
  TPCOOL_REQUIRE(i < size(), "cell index out of range");
  const std::size_t j = neighbor_index(i, band);
  bands_[static_cast<std::size_t>(band)][i] -= g;
  bands_[static_cast<std::size_t>(opposite(band))][j] -= g;
  diag_[i] += g;
  diag_[j] += g;
}

void StencilOperator::add_to_diagonal(std::size_t i, double value) {
  TPCOOL_REQUIRE(i < size(), "cell index out of range");
  diag_[i] += value;
}

void StencilOperator::set_diagonal(std::size_t i, double value) {
  TPCOOL_REQUIRE(i < size(), "cell index out of range");
  diag_[i] = value;
}

void StencilOperator::set_shifted_diagonal(const StencilOperator& base,
                                           const std::vector<double>& shift) {
  TPCOOL_REQUIRE(base.nx_ == nx_ && base.ny_ == ny_ && base.nz_ == nz_,
                 "grid mismatch");
  TPCOOL_REQUIRE(shift.size() == size(), "diagonal size mismatch");
  for (std::size_t i = 0; i < size(); ++i) diag_[i] = base.diag_[i] + shift[i];
}

void StencilOperator::multiply(const std::vector<double>& x,
                               std::vector<double>& y) const {
  const std::size_t n = size();
  TPCOOL_REQUIRE(x.size() == n, "vector size mismatch");
  y.resize(n);
  const std::size_t plane = nx_ * ny_;
  const double* xs = x.data();
  double* ys = y.data();
  const double* d = diag_.data();
  const double *xm = bands_[0].data(), *xp = bands_[1].data();
  const double *ym = bands_[2].data(), *yp = bands_[3].data();
  const double *zm = bands_[4].data(), *zp = bands_[5].data();

  // Boundary band entries are exactly 0, so a neighbour term only needs its
  // index to stay inside the array; that can fail in the first and last
  // plane only. All three loops sum in the same order.
  const auto edge_cell = [&](std::size_t i) {
    double acc = d[i] * xs[i];
    if (i >= 1) acc += xm[i] * xs[i - 1];
    if (i + 1 < n) acc += xp[i] * xs[i + 1];
    if (i >= nx_) acc += ym[i] * xs[i - nx_];
    if (i + nx_ < n) acc += yp[i] * xs[i + nx_];
    if (i >= plane) acc += zm[i] * xs[i - plane];
    if (i + plane < n) acc += zp[i] * xs[i + plane];
    ys[i] = acc;
  };
  for (std::size_t i = 0; i < plane; ++i) edge_cell(i);
  for (std::size_t i = plane; i + plane < n; ++i) {
    ys[i] = d[i] * xs[i] + xm[i] * xs[i - 1] + xp[i] * xs[i + 1] +
            ym[i] * xs[i - nx_] + yp[i] * xs[i + nx_] +
            zm[i] * xs[i - plane] + zp[i] * xs[i + plane];
  }
  for (std::size_t i = std::max(plane, n - plane); i < n; ++i) edge_cell(i);
}

void StencilOperator::ssor_apply(const std::vector<double>& inv_diag,
                                 const std::vector<double>& r,
                                 std::vector<double>& z, double omega) const {
  const std::size_t n = size();
  TPCOOL_REQUIRE(r.size() == n && inv_diag.size() == n,
                 "vector size mismatch");
  TPCOOL_REQUIRE(omega > 0.0 && omega < 2.0, "SSOR omega outside (0, 2)");
  const std::size_t plane = nx_ * ny_;
  z.resize(n);
  const double* inv = inv_diag.data();
  double* t = z.data();
  const double *xm = bands_[0].data(), *xp = bands_[1].data();
  const double *ym = bands_[2].data(), *yp = bands_[3].data();
  const double *zm = bands_[4].data(), *zp = bands_[5].data();

  // Forward sweep, (D + ωL) t = r, as t_i = r_i/d_i − Σ_{j<i} (ω l_ij/d_i) t_j.
  // The coefficient products do not depend on t, and the x-neighbour term
  // goes last, so one multiply-subtract on t_{i-1} is the loop-carried
  // chain. Boundary band entries are exactly 0, so only the first plane,
  // where i - nx or i - plane would leave the array, tests indices.
  for (std::size_t i = 0; i < plane; ++i) {
    const double s = omega * inv[i];
    double acc = r[i] * inv[i];
    if (i >= nx_) acc -= s * ym[i] * t[i - nx_];
    if (i >= 1) acc -= s * xm[i] * t[i - 1];
    t[i] = acc;
  }
  for (std::size_t i = plane; i < n; ++i) {
    const double s = omega * inv[i];
    t[i] = r[i] * inv[i] - s * zm[i] * t[i - plane] - s * ym[i] * t[i - nx_] -
           s * xm[i] * t[i - 1];
  }
  // Backward sweep, (D + ωU) z = D t, as z_i = t_i − Σ_{j>i} (ω u_ij/d_i) z_j,
  // in place; the mirror image of the forward sweep, so no pass scales by D.
  const std::size_t tail = n - plane;
  for (std::size_t i = n; i-- > tail;) {
    const double s = omega * inv[i];
    double acc = t[i];
    if (i + nx_ < n) acc -= s * yp[i] * t[i + nx_];
    if (i + 1 < n) acc -= s * xp[i] * t[i + 1];
    t[i] = acc;
  }
  for (std::size_t i = tail; i-- > 0;) {
    const double s = omega * inv[i];
    t[i] = t[i] - s * zp[i] * t[i + plane] - s * yp[i] * t[i + nx_] -
           s * xp[i] * t[i + 1];
  }
}

SparseMatrix StencilOperator::to_sparse() const {
  SparseMatrix m(size());
  for (std::size_t i = 0; i < size(); ++i) {
    if (diag_[i] != 0.0) m.add(i, i, diag_[i]);
    const std::size_t ix = i % nx_;
    const std::size_t iy = (i / nx_) % ny_;
    const std::size_t iz = i / (nx_ * ny_);
    const std::size_t plane = nx_ * ny_;
    if (ix > 0 && bands_[0][i] != 0.0) m.add(i, i - 1, bands_[0][i]);
    if (ix + 1 < nx_ && bands_[1][i] != 0.0) m.add(i, i + 1, bands_[1][i]);
    if (iy > 0 && bands_[2][i] != 0.0) m.add(i, i - nx_, bands_[2][i]);
    if (iy + 1 < ny_ && bands_[3][i] != 0.0) m.add(i, i + nx_, bands_[3][i]);
    if (iz > 0 && bands_[4][i] != 0.0) m.add(i, i - plane, bands_[4][i]);
    if (iz + 1 < nz_ && bands_[5][i] != 0.0) m.add(i, i + plane, bands_[5][i]);
  }
  m.finalize();
  return m;
}

StencilOperator StencilOperator::from_sparse(const SparseMatrix& m,
                                             std::size_t nx, std::size_t ny,
                                             std::size_t nz) {
  TPCOOL_REQUIRE(m.finalized(), "from_sparse: matrix not finalized");
  TPCOOL_REQUIRE(m.size() == nx * ny * nz,
                 "from_sparse: dimension mismatch with grid");
  StencilOperator op(nx, ny, nz);
  const std::size_t plane = nx * ny;
  for (std::size_t i = 0; i < m.size(); ++i) {
    const std::size_t ix = i % nx;
    const std::size_t iy = (i / nx) % ny;
    const std::size_t iz = i / plane;
    m.for_each_in_row(i, [&](std::size_t j, double v) {
      if (j == i) {
        op.diag_[i] = v;
      } else if (j + 1 == i && ix > 0) {
        op.bands_[0][i] = v;
      } else if (j == i + 1 && ix + 1 < nx) {
        op.bands_[1][i] = v;
      } else if (j + nx == i && iy > 0) {
        op.bands_[2][i] = v;
      } else if (j == i + nx && iy + 1 < ny) {
        op.bands_[3][i] = v;
      } else if (j + plane == i && iz > 0) {
        op.bands_[4][i] = v;
      } else if (j == i + plane && iz + 1 < nz) {
        op.bands_[5][i] = v;
      } else {
        TPCOOL_REQUIRE(v == 0.0,
                       "from_sparse: nonzero outside the 7-point stencil");
      }
    });
  }
  return op;
}

}  // namespace tpcool::util
