#pragma once
/// \file stencil_operator.hpp
/// \brief Structured 7-point stencil operator for the thermal finite-volume
///        grid: banded per-cell coefficients with a matrix-free multiply.
///
/// Every system the thermal grid assembles couples cell (ix, iy, iz) to at
/// most its six axis neighbours. Storing the operator as seven coefficient
/// arrays (one per band) removes the CSR column indirection of
/// SparseMatrix, keeps the memory access pattern sequential, and gives the
/// SSOR preconditioner its forward/backward sweeps for free (lower bands
/// are exactly {x-, y-, z-}, upper bands {x+, y+, z+}).
///
/// Conversion to/from SparseMatrix is provided so tests can cross-check the
/// two representations entry-for-entry.

#include <cstddef>
#include <vector>

#include "tpcool/util/linear_solver.hpp"

namespace tpcool::util {

/// The six neighbour bands of the 7-point stencil.
enum class StencilBand : std::size_t {
  kXMinus = 0,  ///< (ix-1, iy, iz)
  kXPlus = 1,   ///< (ix+1, iy, iz)
  kYMinus = 2,  ///< (ix, iy-1, iz)
  kYPlus = 3,   ///< (ix, iy+1, iz)
  kZMinus = 4,  ///< (ix, iy, iz-1)
  kZPlus = 5,   ///< (ix, iy, iz+1)
};

/// Symmetric 7-point operator on an nx×ny×nz cell grid, indexed like
/// ThermalModel::cell_index: i = (iz*ny + iy)*nx + ix.
class StencilOperator {
 public:
  StencilOperator(std::size_t nx, std::size_t ny, std::size_t nz);

  [[nodiscard]] std::size_t nx() const noexcept { return nx_; }
  [[nodiscard]] std::size_t ny() const noexcept { return ny_; }
  [[nodiscard]] std::size_t nz() const noexcept { return nz_; }
  [[nodiscard]] std::size_t size() const noexcept { return diag_.size(); }

  [[nodiscard]] std::size_t cell_index(std::size_t ix, std::size_t iy,
                                       std::size_t iz) const noexcept {
    return (iz * ny_ + iy) * nx_ + ix;
  }

  /// Add the symmetric conductance coupling `g` between cell `i` and its
  /// neighbour in `band`: both off-diagonals get -g, both diagonals +g.
  /// The neighbour must exist (no wrap-around across grid edges).
  void add_coupling(std::size_t i, StencilBand band, double g);

  /// Accumulate a boundary (or mass) term onto the diagonal of cell `i`.
  void add_to_diagonal(std::size_t i, double value);

  /// Add `values[i]` to every diagonal entry (backward-Euler mass matrix).
  void add_diagonal(const std::vector<double>& values);

  /// Overwrite the diagonal with base.diag + shift. Bands are untouched;
  /// `base` must share this operator's grid. Lets a cached copy of a base
  /// operator be re-shifted every transient step without re-copying the
  /// six neighbour bands.
  void set_shifted_diagonal(const StencilOperator& base,
                            const std::vector<double>& shift);

  [[nodiscard]] double diag(std::size_t i) const { return diag_[i]; }
  [[nodiscard]] double offdiag(std::size_t i, StencilBand band) const {
    return bands_[static_cast<std::size_t>(band)][i];
  }

  /// y = A x, matrix-free over the bands. Serial: one solve runs on one
  /// thread; parallelism is across solves.
  void multiply(const std::vector<double>& x, std::vector<double>& y) const;

  /// Copy of the diagonal band.
  [[nodiscard]] std::vector<double> diagonal() const { return diag_; }

  /// z = M⁻¹ r for the SSOR preconditioner
  /// M = (D + ωL) D⁻¹ (D + ωU) (up to a positive scale, which PCG ignores),
  /// given `inv_diag` = 1/D. Serial like multiply(): the two triangular
  /// sweeps run without a division.
  void ssor_apply(const std::vector<double>& inv_diag,
                  const std::vector<double>& r, std::vector<double>& z,
                  double omega) const;

  /// Convert to the general CSR representation (tests, cross-checks).
  [[nodiscard]] SparseMatrix to_sparse() const;

  /// Build from a finalized SparseMatrix with 7-point structure on an
  /// nx×ny×nz grid. Throws PreconditionError if any nonzero falls outside
  /// the stencil pattern (including wrap-around entries like (i, i-1) when
  /// ix == 0).
  [[nodiscard]] static StencilOperator from_sparse(const SparseMatrix& m,
                                                   std::size_t nx,
                                                   std::size_t ny,
                                                   std::size_t nz);

 private:
  [[nodiscard]] std::size_t neighbor_index(std::size_t i,
                                           StencilBand band) const;

  std::size_t nx_, ny_, nz_;
  std::vector<double> diag_;
  // Band order matches StencilBand. Boundary entries stay exactly 0.
  std::vector<double> bands_[6];
};

}  // namespace tpcool::util
