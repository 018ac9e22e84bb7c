#pragma once
/// \file linear_solver.hpp
/// \brief The thermal solver's SSOR-preconditioned CG, with an optional
///        coarse correction, plus the CSR and dense reference solvers its
///        tests compare against.
///
/// The thermal grid produces symmetric positive-definite systems with a
/// 7-point stencil, which `solve_cg` solves over the banded
/// `StencilOperator`. `SparseMatrix` is the row-by-row reference for that
/// operator's kernels, and dense Gaussian elimination cross-checks CG.

#include <cstddef>
#include <vector>

#include "tpcool/util/error.hpp"

namespace tpcool::util {

/// Triplet-assembled sparse matrix finalized to CSR.
///
/// Usage: construct with the dimension, `add(i, j, v)` (duplicates
/// accumulate), then `finalize()`. After finalization the matrix is
/// read-only and `multiply()` may be used.
class SparseMatrix {
 public:
  explicit SparseMatrix(std::size_t n);

  [[nodiscard]] std::size_t size() const noexcept { return n_; }
  [[nodiscard]] bool finalized() const noexcept { return finalized_; }

  /// Accumulate `value` into entry (row, col). Only valid before finalize().
  void add(std::size_t row, std::size_t col, double value);

  /// Sort/merge triplets into CSR storage. Idempotent.
  void finalize();

  /// y = A x. Requires finalize().
  void multiply(const std::vector<double>& x, std::vector<double>& y) const;

  /// z = M⁻¹ r for the SSOR preconditioner, given `inv_diag` = 1/D: the
  /// row-by-row reference that StencilOperator::ssor_apply is tested
  /// against. Requires finalize().
  void ssor_apply(const std::vector<double>& inv_diag,
                  const std::vector<double>& r, std::vector<double>& z,
                  double omega) const;

  /// Number of stored nonzeros. Requires finalize().
  [[nodiscard]] std::size_t nonzeros() const;

  /// Symmetry check within tolerance (O(nnz log) via lookups); test helper.
  [[nodiscard]] bool is_symmetric(double tol = 1e-9) const;

  /// Entry lookup (0 if absent). Requires finalize().
  [[nodiscard]] double coeff(std::size_t row, std::size_t col) const;

  /// Visit the nonzeros of one row: f(col, value). Requires finalize().
  template <typename F>
  void for_each_in_row(std::size_t row, F&& f) const {
    TPCOOL_REQUIRE(finalized_ && row < n_, "bad row access");
    for (std::size_t k = row_ptr_[row]; k < row_ptr_[row + 1]; ++k) {
      f(col_idx_[k], values_[k]);
    }
  }

 private:
  struct Triplet {
    std::size_t row, col;
    double value;
  };

  std::size_t n_;
  bool finalized_ = false;
  std::vector<Triplet> triplets_;
  std::vector<std::size_t> row_ptr_;
  std::vector<std::size_t> col_idx_;
  std::vector<double> values_;
};

class StencilOperator;
class ColumnCoarseSpace;

/// Options controlling the iterative solver.
struct CgOptions {
  double tolerance = 1e-9;      ///< Relative residual ||r||/||b|| target.
  std::size_t max_iterations = 20000;
  double ssor_omega = 1.5;      ///< SSOR relaxation factor, in (0, 2).
};

/// Result statistics of an iterative solve.
struct CgResult {
  std::size_t iterations = 0;
  double residual = 0.0;  ///< Final relative residual.
  /// Accepted after max_iterations because the residual was within 10×
  /// the tolerance; also counted as `cg.near_converged` when tracing.
  bool near_converged = false;
};

/// Scratch vectors of a CG solve: 1/D, the residual, the preconditioned
/// residual, the search direction and its image.  A caller that solves
/// repeatedly on one grid keeps one, and its solves allocate nothing.
struct CgWorkspace {
  std::vector<double> inv_diag, r, z, p, ap;
};

/// Solve A x = b with SSOR-preconditioned conjugate gradient over the
/// banded 7-point operator (matrix-free SpMV, division-free SSOR sweeps).
/// A must be symmetric positive definite. A non-empty `x` warm-starts the
/// iteration (an exact warm start converges in 0 iterations). At the
/// iteration limit a residual within 10× the tolerance is accepted with
/// `near_converged` set; anything worse throws ConvergenceError (naming
/// the iteration count). One solve runs on one thread; parallelism is
/// across solves.  The scratch vectors live in `work`, resized to A.
/// A non-null `coarse`, built from `a`, makes the preconditioner two-level
/// and additive: z = M_SSOR⁻¹·r + P·A_c⁻¹·Pᵀ·r.
CgResult solve_cg(const StencilOperator& a, const std::vector<double>& b,
                  std::vector<double>& x, const CgOptions& options,
                  CgWorkspace& work, ColumnCoarseSpace* coarse = nullptr);

/// The same solve with scratch vectors of its own.
CgResult solve_cg(const StencilOperator& a, const std::vector<double>& b,
                  std::vector<double>& x, const CgOptions& options = {});

/// Dense Gaussian elimination with partial pivoting; for small systems and
/// cross-checks. `a` is row-major n-by-n and is consumed (modified).
std::vector<double> solve_dense(std::vector<double> a, std::vector<double> b);

}  // namespace tpcool::util
