#pragma once
/// \file coarse_space.hpp
/// \brief The coarse half of the steady solver's two-level preconditioner:
///        piecewise-constant column aggregates and their Galerkin operator.
///
/// SSOR-PCG on the package stack stalls on error that is smooth across the
/// package and nearly constant up each column of layers.  An aggregation
/// coarse space removes that error directly (Nicolaides 1987, *SIAM J.
/// Numer. Anal.* 24(2)): P is piecewise constant on k×k×nz column
/// aggregates, A_c = PᵀAP is a 2D 5-point operator on the aggregate grid,
/// and `solve_cg` adds P·A_c⁻¹·Pᵀ·r to the SSOR-preconditioned residual
/// (the additive two-level form of Tang, Nabben, Vuik & Erlangga 2009,
/// *J. Sci. Comput.* 39(3)).

#include <cstddef>
#include <vector>

namespace tpcool::util {

class StencilOperator;

/// Column aggregates of a StencilOperator's grid with A_c = PᵀAP factored
/// by banded Cholesky.  Built from one operator and valid for that operator
/// only; a solve builds its own (about 0.1 ms at the paper's 0.75 mm).
class ColumnCoarseSpace {
 public:
  /// Aggregate width k: each aggregate is a k×k patch of columns through
  /// every layer, ragged on the east and north edges.  Measured on traced
  /// `paper_battery` (`cg.iterations` / `cg.ms`, one run each on 4 vCPUs,
  /// ±5% run to run; SSOR alone: 15,426 / 4,040): k = 2 5,946 / 2,216;
  /// k = 3 6,277 / 2,034; k = 4 6,852 / 2,059; k = 6 7,856 / 2,049.
  /// Smaller k cuts iterations but costs more per iteration, since the
  /// banded factor grows as nc·⌈nx/k⌉ ~ 1/k³; k = 3 is the fewest
  /// iterations at the lowest cost.
  static constexpr std::size_t kAggregateWidth = 3;

  /// Project `a` onto the column aggregates and factor the result.  Throws
  /// InvariantError if a Cholesky pivot is not positive (A not SPD).
  explicit ColumnCoarseSpace(const StencilOperator& a);

  /// Number of coarse unknowns (aggregates).
  [[nodiscard]] std::size_t size() const noexcept { return diag_.size(); }
  /// Aggregates along x and y.
  [[nodiscard]] std::size_t cx() const noexcept { return cx_; }
  [[nodiscard]] std::size_t cy() const noexcept { return cy_; }

  /// Entry (c, d) of A_c as assembled, before factoring; aggregate c sits
  /// at (c % cx, c / cx).  Zero unless d is c or one of its axis
  /// neighbours (test reference).
  [[nodiscard]] double coefficient(std::size_t c, std::size_t d) const;

  /// z += P·A_c⁻¹·Pᵀ·r.  `r` and `z` have the built operator's size.
  void add_correction(const std::vector<double>& r, std::vector<double>& z);

 private:
  [[nodiscard]] double& factor(std::size_t i, std::size_t j) {
    return factor_[i * cx_ + j + cx_];  // row i holds columns i−cx..i
  }

  std::size_t nx_, ny_, nz_;
  std::size_t cx_, cy_;  // aggregate grid; cx_ is the half-bandwidth
  // A_c: diagonal and the couplings to the east (c+1) and north (c+cx)
  // neighbours; the operator is symmetric.
  std::vector<double> diag_, east_, north_;
  std::vector<double> factor_;  // banded L, row-major, nc × (cx + 1)
  std::vector<double> coarse_;  // Pᵀr, then A_c⁻¹Pᵀr
};

}  // namespace tpcool::util
