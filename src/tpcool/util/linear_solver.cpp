#include "tpcool/util/linear_solver.hpp"

#include <algorithm>
#include <cmath>
#include <numeric>

#include "tpcool/util/coarse_space.hpp"
#include "tpcool/util/stencil_operator.hpp"
#include "tpcool/util/telemetry.hpp"

namespace tpcool::util {

SparseMatrix::SparseMatrix(std::size_t n) : n_(n) {
  TPCOOL_REQUIRE(n > 0, "matrix dimension must be positive");
}

void SparseMatrix::add(std::size_t row, std::size_t col, double value) {
  TPCOOL_REQUIRE(!finalized_, "add() after finalize()");
  TPCOOL_REQUIRE(row < n_ && col < n_, "matrix index out of range");
  triplets_.push_back({row, col, value});
}

void SparseMatrix::finalize() {
  if (finalized_) return;
  std::sort(triplets_.begin(), triplets_.end(),
            [](const Triplet& a, const Triplet& b) {
              return a.row != b.row ? a.row < b.row : a.col < b.col;
            });
  row_ptr_.assign(n_ + 1, 0);
  col_idx_.clear();
  values_.clear();
  col_idx_.reserve(triplets_.size());
  values_.reserve(triplets_.size());
  std::size_t k = 0;
  for (std::size_t row = 0; row < n_; ++row) {
    row_ptr_[row] = col_idx_.size();
    while (k < triplets_.size() && triplets_[k].row == row) {
      const std::size_t col = triplets_[k].col;
      double v = 0.0;
      while (k < triplets_.size() && triplets_[k].row == row &&
             triplets_[k].col == col) {
        v += triplets_[k].value;
        ++k;
      }
      col_idx_.push_back(col);
      values_.push_back(v);
    }
  }
  row_ptr_[n_] = col_idx_.size();
  triplets_.clear();
  triplets_.shrink_to_fit();
  finalized_ = true;
}

void SparseMatrix::multiply(const std::vector<double>& x,
                            std::vector<double>& y) const {
  TPCOOL_REQUIRE(finalized_, "multiply() before finalize()");
  TPCOOL_REQUIRE(x.size() == n_, "vector size mismatch");
  y.assign(n_, 0.0);
  for (std::size_t row = 0; row < n_; ++row) {
    double acc = 0.0;
    for (std::size_t k = row_ptr_[row]; k < row_ptr_[row + 1]; ++k) {
      acc += values_[k] * x[col_idx_[k]];
    }
    y[row] = acc;
  }
}

std::size_t SparseMatrix::nonzeros() const {
  TPCOOL_REQUIRE(finalized_, "nonzeros() before finalize()");
  return values_.size();
}

double SparseMatrix::coeff(std::size_t row, std::size_t col) const {
  TPCOOL_REQUIRE(finalized_, "coeff() before finalize()");
  TPCOOL_REQUIRE(row < n_ && col < n_, "matrix index out of range");
  const auto begin = col_idx_.begin() + static_cast<std::ptrdiff_t>(row_ptr_[row]);
  const auto end = col_idx_.begin() + static_cast<std::ptrdiff_t>(row_ptr_[row + 1]);
  const auto it = std::lower_bound(begin, end, col);
  if (it != end && *it == col) {
    return values_[static_cast<std::size_t>(it - col_idx_.begin())];
  }
  return 0.0;
}

bool SparseMatrix::is_symmetric(double tol) const {
  TPCOOL_REQUIRE(finalized_, "is_symmetric() before finalize()");
  for (std::size_t row = 0; row < n_; ++row) {
    for (std::size_t k = row_ptr_[row]; k < row_ptr_[row + 1]; ++k) {
      const std::size_t col = col_idx_[k];
      if (std::abs(values_[k] - coeff(col, row)) > tol) return false;
    }
  }
  return true;
}

void SparseMatrix::ssor_apply(const std::vector<double>& inv_diag,
                              const std::vector<double>& r,
                              std::vector<double>& z, double omega) const {
  TPCOOL_REQUIRE(finalized_, "ssor_apply() before finalize()");
  TPCOOL_REQUIRE(r.size() == n_ && inv_diag.size() == n_,
                 "vector size mismatch");
  // CSR columns are sorted, so the triangular sweeps just split each row at
  // the diagonal.
  z.resize(n_);
  for (std::size_t i = 0; i < n_; ++i) {  // (D + ωL) t = r
    double acc = r[i];
    for_each_in_row(i, [&](std::size_t j, double v) {
      if (j < i) acc -= omega * v * z[j];
    });
    z[i] = acc * inv_diag[i];
  }
  for (std::size_t i = n_; i-- > 0;) {  // (D + ωU) z = D t
    double acc = 0.0;
    for_each_in_row(i, [&](std::size_t j, double v) {
      if (j > i) acc += v * z[j];
    });
    z[i] -= omega * inv_diag[i] * acc;
  }
}

namespace {

double dot(const std::vector<double>& a, const std::vector<double>& b) {
  return std::inner_product(a.begin(), a.end(), b.begin(), 0.0);
}

double norm2(const std::vector<double>& a) { return std::sqrt(dot(a, a)); }

/// The convergence check runs after each update, so the final residual is
/// never recomputed and `iterations` is always populated — including on
/// the throw path.
CgResult cg_impl(const StencilOperator& a, const std::vector<double>& b,
                 std::vector<double>& x, const CgOptions& options,
                 CgWorkspace& work, ColumnCoarseSpace* coarse) {
  const std::size_t n = a.size();
  TPCOOL_REQUIRE(b.size() == n, "solve_cg: rhs size mismatch");
  TPCOOL_REQUIRE(options.ssor_omega > 0.0 && options.ssor_omega < 2.0,
                 "solve_cg: SSOR omega outside (0, 2)");
  if (x.size() != n) x.assign(n, 0.0);

  const double bnorm = norm2(b);
  if (bnorm == 0.0) {
    x.assign(n, 0.0);
    return {0, 0.0};
  }

  // Every entry of the scratch vectors is written before it is read.
  std::vector<double>& inv_diag = work.inv_diag;
  std::vector<double>& r = work.r;
  std::vector<double>& z = work.z;
  std::vector<double>& p = work.p;
  std::vector<double>& ap = work.ap;
  inv_diag.resize(n);
  r.resize(n);
  for (std::size_t i = 0; i < n; ++i) {
    TPCOOL_ENSURE(a.diag(i) > 0.0,
                  "solve_cg: non-positive diagonal (matrix not SPD?)");
    inv_diag[i] = 1.0 / a.diag(i);
  }

  a.multiply(x, ap);
  for (std::size_t i = 0; i < n; ++i) r[i] = b[i] - ap[i];

  CgResult result;
  result.residual = norm2(r) / bnorm;
  if (result.residual <= options.tolerance) return result;  // warm-start hit

  const auto precondition = [&] {
    a.ssor_apply(inv_diag, r, z, options.ssor_omega);
    if (coarse != nullptr) coarse->add_correction(r, z);
  };
  precondition();
  p = z;
  double rz = dot(r, z);

  for (std::size_t it = 1; it <= options.max_iterations; ++it) {
    a.multiply(p, ap);
    const double pap = dot(p, ap);
    TPCOOL_ENSURE(pap > 0.0,
                  "solve_cg: curvature non-positive (matrix not SPD?)");
    const double alpha = rz / pap;
    double rr = 0.0;
    for (std::size_t i = 0; i < n; ++i) {
      x[i] += alpha * p[i];
      r[i] -= alpha * ap[i];
      rr += r[i] * r[i];
    }
    result.iterations = it;
    result.residual = std::sqrt(rr) / bnorm;
    if (result.residual <= options.tolerance) return result;
    precondition();
    const double rz_new = dot(r, z);
    const double beta = rz_new / rz;
    rz = rz_new;
    for (std::size_t i = 0; i < n; ++i) p[i] = z[i] + beta * p[i];
  }
  if (result.residual <= options.tolerance * 10.0) {
    // Accept near-converged solutions rather than failing outright, but
    // say so in the result and the telemetry.
    result.near_converged = true;
    if (telemetry_enabled()) {
      static TelemetryCounter& near_converged =
          Telemetry::instance().counter("cg.near_converged");
      near_converged.add(1.0);
    }
    return result;
  }
  throw ConvergenceError("solve_cg: failed to converge (residual " +
                         std::to_string(result.residual) + " after " +
                         std::to_string(result.iterations) + " iterations)");
}

}  // namespace

CgResult solve_cg(const StencilOperator& a, const std::vector<double>& b,
                  std::vector<double>& x, const CgOptions& options,
                  CgWorkspace& work, ColumnCoarseSpace* coarse) {
  TraceSpan span("cg");
  const CgResult result = cg_impl(a, b, x, options, work, coarse);
  span.arg("n", static_cast<double>(b.size()));
  span.arg("iterations", static_cast<double>(result.iterations));
  span.arg("residual", result.residual);
  if (telemetry_enabled()) {
    static TelemetryHistogram& iterations =
        Telemetry::instance().histogram("cg.iterations");
    iterations.record(static_cast<double>(result.iterations));
  }
  return result;
}

CgResult solve_cg(const StencilOperator& a, const std::vector<double>& b,
                  std::vector<double>& x, const CgOptions& options) {
  CgWorkspace work;
  return solve_cg(a, b, x, options, work);
}

std::vector<double> solve_dense(std::vector<double> a, std::vector<double> b) {
  const std::size_t n = b.size();
  TPCOOL_REQUIRE(a.size() == n * n, "solve_dense: matrix/vector size mismatch");
  for (std::size_t col = 0; col < n; ++col) {
    // Partial pivoting.
    std::size_t pivot = col;
    for (std::size_t row = col + 1; row < n; ++row) {
      if (std::abs(a[row * n + col]) > std::abs(a[pivot * n + col]))
        pivot = row;
    }
    TPCOOL_ENSURE(std::abs(a[pivot * n + col]) > 1e-300,
                  "solve_dense: singular matrix");
    if (pivot != col) {
      for (std::size_t j = 0; j < n; ++j)
        std::swap(a[col * n + j], a[pivot * n + j]);
      std::swap(b[col], b[pivot]);
    }
    for (std::size_t row = col + 1; row < n; ++row) {
      const double f = a[row * n + col] / a[col * n + col];
      if (f == 0.0) continue;
      for (std::size_t j = col; j < n; ++j) a[row * n + j] -= f * a[col * n + j];
      b[row] -= f * b[col];
    }
  }
  std::vector<double> x(n, 0.0);
  for (std::size_t i = n; i-- > 0;) {
    double acc = b[i];
    for (std::size_t j = i + 1; j < n; ++j) acc -= a[i * n + j] * x[j];
    x[i] = acc / a[i * n + i];
  }
  return x;
}

}  // namespace tpcool::util
