#include "tpcool/util/coarse_space.hpp"

#include <algorithm>
#include <cmath>

#include "tpcool/util/error.hpp"
#include "tpcool/util/stencil_operator.hpp"

namespace tpcool::util {

ColumnCoarseSpace::ColumnCoarseSpace(const StencilOperator& a)
    : nx_(a.nx()),
      ny_(a.ny()),
      nz_(a.nz()),
      cx_((nx_ + kAggregateWidth - 1) / kAggregateWidth),
      cy_((ny_ + kAggregateWidth - 1) / kAggregateWidth),
      diag_(cx_ * cy_, 0.0),
      east_(cx_ * cy_, 0.0),
      north_(cx_ * cy_, 0.0),
      factor_(cx_ * cy_ * (cx_ + 1), 0.0),
      coarse_(cx_ * cy_) {
  constexpr std::size_t k = kAggregateWidth;
  const std::size_t nc = size();

  // A_c(c, d) sums A_ij over cells i in aggregate c and j in d.  A z
  // coupling never leaves its column, and an x or y coupling leaves the
  // aggregate only from its east or north face (the west and south faces
  // are the neighbour's east and north).  At the grid edge the band entry
  // is exactly 0, so a ragged aggregate needs no test of its own.
  using B = StencilBand;
  for (std::size_t iz = 0; iz < nz_; ++iz) {
    for (std::size_t iy = 0; iy < ny_; ++iy) {
      const std::size_t row = (iy / k) * cx_;
      const bool south_face = iy % k == 0;
      const bool north_face = iy % k == k - 1;
      for (std::size_t ix = 0; ix < nx_; ++ix) {
        const std::size_t i = a.cell_index(ix, iy, iz);
        const std::size_t c = row + ix / k;
        double d = a.diag(i) + a.offdiag(i, B::kZMinus) +
                   a.offdiag(i, B::kZPlus);
        if (ix % k != 0) d += a.offdiag(i, B::kXMinus);
        if (ix % k == k - 1) {
          east_[c] += a.offdiag(i, B::kXPlus);
        } else {
          d += a.offdiag(i, B::kXPlus);
        }
        if (!south_face) d += a.offdiag(i, B::kYMinus);
        if (north_face) {
          north_[c] += a.offdiag(i, B::kYPlus);
        } else {
          d += a.offdiag(i, B::kYPlus);
        }
        diag_[c] += d;
      }
    }
  }

  // Banded Cholesky, A_c = L·Lᵀ, in natural order: the half-bandwidth is
  // one aggregate row, cx, and the fill stays inside it.
  const std::size_t w = cx_;
  for (std::size_t i = 0; i < nc; ++i) {
    factor(i, i) = diag_[i];
    if (i % w != 0) factor(i, i - 1) = east_[i - 1];
    if (i >= w) factor(i, i - w) = north_[i - w];
  }
  for (std::size_t i = 0; i < nc; ++i) {
    const std::size_t j0 = i >= w ? i - w : 0;
    for (std::size_t j = j0; j <= i; ++j) {
      double s = factor(i, j);
      for (std::size_t m = j0; m < j; ++m) s -= factor(i, m) * factor(j, m);
      if (j < i) {
        factor(i, j) = s / factor(j, j);
      } else {
        TPCOOL_ENSURE(s > 0.0,
                      "coarse operator: non-positive Cholesky pivot "
                      "(matrix not SPD?)");
        factor(i, i) = std::sqrt(s);
      }
    }
  }
}

double ColumnCoarseSpace::coefficient(std::size_t c, std::size_t d) const {
  TPCOOL_REQUIRE(c < size() && d < size(), "coarse index out of range");
  const std::size_t lo = std::min(c, d);
  const std::size_t hi = std::max(c, d);
  if (lo == hi) return diag_[lo];
  if (hi == lo + 1 && hi % cx_ != 0) return east_[lo];
  if (hi == lo + cx_) return north_[lo];
  return 0.0;
}

void ColumnCoarseSpace::add_correction(const std::vector<double>& r,
                                       std::vector<double>& z) {
  constexpr std::size_t k = kAggregateWidth;
  const std::size_t nc = size();
  TPCOOL_REQUIRE(r.size() == nx_ * ny_ * nz_ && z.size() == r.size(),
                 "vector size mismatch");
  // Restrict, Pᵀr: sum each aggregate's cells, one x-run of k at a time,
  // so no cell pays an index division.
  std::fill(coarse_.begin(), coarse_.end(), 0.0);
  const double* rs = r.data();
  for (std::size_t iz = 0; iz < nz_; ++iz) {
    for (std::size_t iy = 0; iy < ny_; ++iy, rs += nx_) {
      double* yc = coarse_.data() + (iy / k) * cx_;
      for (std::size_t ix = 0; ix < nx_; ++yc) {
        const std::size_t end = std::min(ix + k, nx_);
        double s = 0.0;
        for (; ix < end; ++ix) s += rs[ix];
        *yc += s;
      }
    }
  }
  // Solve L·Lᵀ·e = Pᵀr in place.
  const std::size_t w = cx_;
  for (std::size_t i = 0; i < nc; ++i) {
    double s = coarse_[i];
    for (std::size_t m = i >= w ? i - w : 0; m < i; ++m) {
      s -= factor(i, m) * coarse_[m];
    }
    coarse_[i] = s / factor(i, i);
  }
  for (std::size_t i = nc; i-- > 0;) {
    const double e = coarse_[i] / factor(i, i);
    coarse_[i] = e;
    for (std::size_t m = i >= w ? i - w : 0; m < i; ++m) {
      coarse_[m] -= factor(i, m) * e;
    }
  }
  // Prolong, z += P·e: every cell of an aggregate gets its value.
  double* zs = z.data();
  for (std::size_t iz = 0; iz < nz_; ++iz) {
    for (std::size_t iy = 0; iy < ny_; ++iy, zs += nx_) {
      const double* ec = coarse_.data() + (iy / k) * cx_;
      for (std::size_t ix = 0; ix < nx_; ++ec) {
        const std::size_t end = std::min(ix + k, nx_);
        for (; ix < end; ++ix) zs[ix] += *ec;
      }
    }
  }
}

}  // namespace tpcool::util
