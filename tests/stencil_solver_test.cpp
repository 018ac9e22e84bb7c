// Tests for the structured solver core: StencilOperator vs SparseMatrix
// equivalence (SpMV and SSOR kernels, including degenerate grid shapes),
// the column-aggregate coarse space against an explicit PᵀAP, ThreadPool
// determinism, and one- and two-level preconditioned-CG behavior on the
// banded operator.

#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <cmath>
#include <random>

#include "tpcool/thermal/grid.hpp"
#include "tpcool/thermal/stack.hpp"
#include "tpcool/util/coarse_space.hpp"
#include "tpcool/util/error.hpp"
#include "tpcool/util/linear_solver.hpp"
#include "tpcool/util/stencil_operator.hpp"
#include "tpcool/util/telemetry.hpp"
#include "tpcool/util/thread_pool.hpp"

namespace tpcool::util {
namespace {

/// Build a random SPD 7-point operator on an nx×ny×nz grid: random positive
/// couplings on every interior face plus a boundary-leak diagonal term, the
/// same structure the thermal assembler produces.
StencilOperator random_stencil(std::size_t nx, std::size_t ny, std::size_t nz,
                               unsigned seed) {
  std::mt19937 rng(seed);
  std::uniform_real_distribution<double> g_dist(0.1, 2.0);
  StencilOperator op(nx, ny, nz);
  for (std::size_t iz = 0; iz < nz; ++iz) {
    for (std::size_t iy = 0; iy < ny; ++iy) {
      for (std::size_t ix = 0; ix < nx; ++ix) {
        const std::size_t i = op.cell_index(ix, iy, iz);
        if (ix + 1 < nx) op.add_coupling(i, StencilBand::kXPlus, g_dist(rng));
        if (iy + 1 < ny) op.add_coupling(i, StencilBand::kYPlus, g_dist(rng));
        if (iz + 1 < nz) op.add_coupling(i, StencilBand::kZPlus, g_dist(rng));
        op.add_to_diagonal(i, g_dist(rng));  // boundary leak keeps it SPD
      }
    }
  }
  return op;
}

std::vector<double> random_vector(std::size_t n, unsigned seed) {
  std::mt19937 rng(seed);
  std::uniform_real_distribution<double> dist(-1.0, 1.0);
  std::vector<double> v(n);
  for (auto& x : v) x = dist(rng);
  return v;
}

/// max_i |a_i - b_i| / max_i |b_i|.
double max_relative_error(const std::vector<double>& a,
                          const std::vector<double>& b) {
  double diff = 0.0, scale = 0.0;
  for (std::size_t i = 0; i < a.size(); ++i) {
    diff = std::max(diff, std::abs(a[i] - b[i]));
    scale = std::max(scale, std::abs(b[i]));
  }
  return diff / scale;
}

/// Grid shapes for the kernel equivalence tests. The kernels split the
/// flat index into a first plane, interior planes and a last plane, so
/// cover a regular grid plus shapes where one plane is the whole array
/// (nz = 1), the planes are single rows (ny = 1) or rows are single cells
/// (nx = 1, 1x1x6).
constexpr std::array<std::array<std::size_t, 3>, 6> kKernelGrids{{
    {5, 4, 3}, {6, 5, 1}, {7, 1, 4}, {1, 5, 4}, {1, 1, 6}, {1, 1, 1}}};

// ------------------------------------------- StencilOperator <-> CSR --

TEST(StencilOperator, MultiplyMatchesSparseOnRandomStencils) {
  for (const unsigned seed : {1u, 2u, 3u}) {
    for (const auto& [nx, ny, nz] : kKernelGrids) {
      const StencilOperator op = random_stencil(nx, ny, nz, seed);
      const SparseMatrix csr = op.to_sparse();
      ASSERT_TRUE(csr.is_symmetric(1e-12));
      const std::vector<double> x = random_vector(op.size(), seed + 100);
      std::vector<double> y_stencil, y_csr;
      op.multiply(x, y_stencil);
      csr.multiply(x, y_csr);
      for (std::size_t i = 0; i < op.size(); ++i) {
        // The entries are identical; only the accumulation order differs
        // (CSR sums columns ascending, the stencil sums band-by-band), so
        // agreement is to rounding, not bitwise.
        EXPECT_NEAR(y_stencil[i], y_csr[i], 1e-13)
            << nx << "x" << ny << "x" << nz << " cell " << i;
      }
    }
  }
}

TEST(StencilOperator, SsorApplyMatchesSparseReference) {
  // The banded sweeps fold 1/D into the coefficients and skip index tests
  // outside the first/last plane; the CSR sweeps are the textbook form.
  unsigned seed = 300;
  for (const auto& [nx, ny, nz] : kKernelGrids) {
    const StencilOperator op = random_stencil(nx, ny, nz, ++seed);
    const SparseMatrix csr = op.to_sparse();
    std::vector<double> inv_diag(op.size());
    for (std::size_t i = 0; i < op.size(); ++i) {
      inv_diag[i] = 1.0 / op.diag(i);
    }
    const std::vector<double> r = random_vector(op.size(), ++seed);
    for (const double omega : {1.0, 1.5, 1.7}) {
      std::vector<double> z_stencil, z_csr;
      op.ssor_apply(inv_diag, r, z_stencil, omega);
      csr.ssor_apply(inv_diag, r, z_csr, omega);
      EXPECT_LE(max_relative_error(z_stencil, z_csr), 1e-12)
          << nx << "x" << ny << "x" << nz << " omega " << omega;
    }
  }
}

TEST(StencilOperator, FromSparseRoundTrip) {
  const StencilOperator op = random_stencil(4, 3, 2, 7);
  const SparseMatrix csr = op.to_sparse();
  const StencilOperator back = StencilOperator::from_sparse(csr, 4, 3, 2);
  const std::vector<double> x = random_vector(op.size(), 42);
  std::vector<double> y1, y2;
  op.multiply(x, y1);
  back.multiply(x, y2);
  for (std::size_t i = 0; i < op.size(); ++i) {
    EXPECT_DOUBLE_EQ(y1[i], y2[i]);
  }
  for (std::size_t i = 0; i < op.size(); ++i) {
    EXPECT_DOUBLE_EQ(op.diag(i), back.diag(i));
  }
}

TEST(StencilOperator, BoundaryCellsHaveNoWrapAroundCoupling) {
  // A 2x2x2 grid: every cell is a boundary cell; check bands at the edges
  // are exactly zero and x-row ends do not couple across rows.
  const StencilOperator op = random_stencil(2, 2, 2, 9);
  for (std::size_t iz = 0; iz < 2; ++iz) {
    for (std::size_t iy = 0; iy < 2; ++iy) {
      EXPECT_EQ(op.offdiag(op.cell_index(0, iy, iz), StencilBand::kXMinus),
                0.0);
      EXPECT_EQ(op.offdiag(op.cell_index(1, iy, iz), StencilBand::kXPlus),
                0.0);
    }
  }
  const SparseMatrix csr = op.to_sparse();
  // Cell (1,0,0) = index 1 and cell (0,1,0) = index 2 are adjacent in
  // memory but not in the grid: no (1,2) entry may exist.
  EXPECT_EQ(csr.coeff(1, 2), 0.0);
}

TEST(StencilOperator, FromSparseRejectsNonStencilEntry) {
  SparseMatrix m(8);  // 2x2x2 grid
  for (std::size_t i = 0; i < 8; ++i) m.add(i, i, 4.0);
  m.add(0, 7, -1.0);  // diagonal-corner coupling: not a stencil neighbour
  m.add(7, 0, -1.0);
  m.finalize();
  EXPECT_THROW((void)StencilOperator::from_sparse(m, 2, 2, 2),
               PreconditionError);
}

TEST(StencilOperator, FromSparseRejectsWrapAroundEntry) {
  // Entry (i, i-1) with ix == 0 is the previous x-row's last cell, not a
  // stencil neighbour, even though the column offset looks like x-minus.
  SparseMatrix m(4);  // 2x2x1 grid
  for (std::size_t i = 0; i < 4; ++i) m.add(i, i, 4.0);
  m.add(2, 1, -1.0);  // (0,1,0) <- (1,0,0): wrap across the x edge
  m.add(1, 2, -1.0);
  m.finalize();
  EXPECT_THROW((void)StencilOperator::from_sparse(m, 2, 2, 1),
               PreconditionError);
}

TEST(StencilOperator, CouplingAtGridEdgeThrows) {
  StencilOperator op(2, 2, 1);
  EXPECT_THROW(op.add_coupling(0, StencilBand::kXMinus, 1.0),
               PreconditionError);
  EXPECT_THROW(op.add_coupling(1, StencilBand::kXPlus, 1.0),
               PreconditionError);
  EXPECT_THROW(op.add_coupling(0, StencilBand::kZPlus, 1.0),
               PreconditionError);
}

// --------------------------------------------------- CG on the stencil --

TEST(StencilCg, MatchesDenseSolveAtBothSolverOmegas) {
  // ω = 1.5 is the transient solver's relaxation and 1.7 the steady one's.
  const StencilOperator op = random_stencil(6, 5, 4, 11);
  const SparseMatrix csr = op.to_sparse();
  const std::size_t n = op.size();
  std::vector<double> dense(n * n);
  for (std::size_t i = 0; i < n; ++i) {
    for (std::size_t j = 0; j < n; ++j) dense[i * n + j] = csr.coeff(i, j);
  }
  const std::vector<double> b = random_vector(n, 13);
  const std::vector<double> x_dense = solve_dense(dense, b);
  for (const double omega : {1.5, 1.7}) {
    std::vector<double> x;
    const CgResult r =
        solve_cg(op, b, x, {.tolerance = 1e-12, .ssor_omega = omega});
    EXPECT_LE(r.residual, 1e-12);
    for (std::size_t i = 0; i < n; ++i) {
      EXPECT_NEAR(x[i], x_dense[i], 1e-9) << "omega=" << omega;
    }
  }
}

TEST(StencilCg, WarmStartAtExactSolutionConvergesInZeroIterations) {
  const StencilOperator op = random_stencil(4, 4, 3, 23);
  const std::vector<double> b = random_vector(op.size(), 29);
  std::vector<double> x;
  (void)solve_cg(op, b, x, {.tolerance = 1e-12});
  std::vector<double> warm = x;
  const CgResult r = solve_cg(op, b, warm, {.tolerance = 1e-10});
  EXPECT_EQ(r.iterations, 0u);
  EXPECT_EQ(warm, x);  // untouched: already converged
}

TEST(StencilCg, ZeroRhsGivesZero) {
  const StencilOperator op = random_stencil(3, 3, 2, 31);
  std::vector<double> x(op.size(), 99.0);
  const CgResult r = solve_cg(op, std::vector<double>(op.size(), 0.0), x);
  EXPECT_EQ(r.iterations, 0u);
  for (const double v : x) EXPECT_DOUBLE_EQ(v, 0.0);
}

TEST(StencilCg, OneByOneSystem) {
  StencilOperator op(1, 1, 1);
  op.add_to_diagonal(0, 4.0);
  std::vector<double> x;
  const CgResult r = solve_cg(op, {8.0}, x);
  EXPECT_NEAR(x[0], 2.0, 1e-12);
  EXPECT_LE(r.iterations, 1u);
}

TEST(StencilCg, NonConvergenceNamesIterationCount) {
  // An SPD system solved with an absurdly small iteration budget and an
  // unreachable tolerance must throw, and the message must carry the
  // iteration count (the satellite fix for the old silent throw path).
  const StencilOperator op = random_stencil(8, 8, 4, 37);
  const std::vector<double> b = random_vector(op.size(), 41);
  std::vector<double> x;
  try {
    (void)solve_cg(op, b, x, {.tolerance = 1e-15, .max_iterations = 2});
    FAIL() << "expected ConvergenceError";
  } catch (const ConvergenceError& e) {
    EXPECT_NE(std::string(e.what()).find("after 2 iterations"),
              std::string::npos)
        << e.what();
  }
}

TEST(StencilCg, NearConvergedAcceptIsReportedAndCounted) {
  // Converge once to learn the iteration m and residual r_m at which the
  // tolerance is first met. Rerunning with tolerance r_m / 2 and m
  // iterations follows the same trajectory and ends within 10x the
  // tolerance: the near-converged accept path.
  const StencilOperator op = random_stencil(8, 8, 4, 59);
  const std::vector<double> b = random_vector(op.size(), 61);
  std::vector<double> x;
  const CgOptions converge{.tolerance = 1e-6};
  const CgResult full = solve_cg(op, b, x, converge);
  ASSERT_GE(full.iterations, 2u);
  EXPECT_FALSE(full.near_converged);

  Telemetry::instance().enable();
  Telemetry::instance().reset();
  CgOptions tight = converge;
  tight.tolerance = full.residual / 2.0;
  tight.max_iterations = full.iterations;
  x.clear();
  const CgResult near = solve_cg(op, b, x, tight);
  const double counted =
      Telemetry::instance().counter("cg.near_converged").value();
  Telemetry::instance().reset();
  Telemetry::instance().disable();

  EXPECT_TRUE(near.near_converged);
  EXPECT_EQ(near.iterations, full.iterations);
  EXPECT_EQ(near.residual, full.residual);
  EXPECT_EQ(counted, 1.0);
}

TEST(StencilCg, ColdPackageStackIterationCountIsPinned) {
  // perf_microbench's BM_ThermalSteadySolve/200 model: a kernel change that
  // perturbs convergence on the real thermal operator shows up here.
  thermal::PackageStackConfig config;
  config.cell_size_m = 2.0e-3;
  thermal::ThermalModel model(thermal::make_package_stack(config));
  model.set_top_boundary_uniform(1.2e4, 40.0);
  Grid2D<double> power(model.nx(), model.ny(), 0.0);
  power(model.nx() / 2, model.ny() / 2) = 60.0;
  model.set_power_map(power);
  (void)model.solve_steady();
  EXPECT_EQ(model.last_solve_stats().iterations, 22u);
  EXPECT_FALSE(model.last_solve_stats().near_converged);
}

TEST(StencilCg, TransientStepSolveRunsSsorOnly) {
  // perf_microbench's BM_ThermalTransientStepSolve case: a step solve
  // keeps the one-level SSOR preconditioner, so its count stays where it
  // was before steady solves gained the coarse correction.
  thermal::PackageStackConfig config;
  config.cell_size_m = 2.0e-3;
  thermal::ThermalModel model(thermal::make_package_stack(config));
  model.set_top_boundary_uniform(1.2e4, 40.0);
  Grid2D<double> power(model.nx(), model.ny(), 0.0);
  power(model.nx() / 2, model.ny() / 2) = 60.0;
  model.set_power_map(power);
  const std::vector<double> t(model.cell_count(), 40.0);
  std::vector<double> x = t;
  model.step_transient(t, x, 0.05);
  EXPECT_EQ(model.last_solve_stats().iterations, 12u);
}

// ----------------------------------------------- two-level coarse space --

/// Grids for the coarse space: the kernel grids (single-cell rows, single
/// rows, one layer, one cell) plus shapes whose nx and ny are not
/// multiples of the aggregate width, so the east and north aggregates are
/// ragged.
std::vector<std::array<std::size_t, 3>> coarse_grids() {
  constexpr std::size_t k = ColumnCoarseSpace::kAggregateWidth;
  std::vector<std::array<std::size_t, 3>> grids(kKernelGrids.begin(),
                                                kKernelGrids.end());
  grids.push_back({2 * k + 1, k + 2, 4});
  grids.push_back({3 * k + 2, 2 * k + 1, 2});
  grids.push_back({k + 1, 3 * k - 1, 1});
  return grids;
}

/// Dense row-major copy of a stencil operator.
std::vector<double> dense_of(const StencilOperator& op) {
  const SparseMatrix csr = op.to_sparse();
  const std::size_t n = op.size();
  std::vector<double> dense(n * n, 0.0);
  for (std::size_t i = 0; i < n; ++i) {
    csr.for_each_in_row(i, [&](std::size_t j, double v) {
      dense[i * n + j] = v;
    });
  }
  return dense;
}

TEST(ColumnCoarseSpace, GalerkinOperatorEqualsExplicitProjection) {
  constexpr std::size_t k = ColumnCoarseSpace::kAggregateWidth;
  unsigned seed = 500;
  for (const auto& [nx, ny, nz] : coarse_grids()) {
    SCOPED_TRACE(std::to_string(nx) + "x" + std::to_string(ny) + "x" +
                 std::to_string(nz));
    const StencilOperator op = random_stencil(nx, ny, nz, ++seed);
    ColumnCoarseSpace coarse(op);
    const std::size_t cx = (nx + k - 1) / k;
    const std::size_t cy = (ny + k - 1) / k;
    ASSERT_EQ(coarse.cx(), cx);
    ASSERT_EQ(coarse.cy(), cy);
    ASSERT_EQ(coarse.size(), cx * cy);

    // PᵀAP from the CSR rows: entry (c, d) sums A_ij over i in c, j in d.
    const std::size_t nc = cx * cy;
    const auto aggregate = [&](std::size_t i) {
      return (i / nx % ny) / k * cx + i % nx / k;
    };
    std::vector<double> explicit_ac(nc * nc, 0.0);
    const SparseMatrix csr = op.to_sparse();
    for (std::size_t i = 0; i < op.size(); ++i) {
      csr.for_each_in_row(i, [&](std::size_t j, double v) {
        explicit_ac[aggregate(i) * nc + aggregate(j)] += v;
      });
    }
    double diff = 0.0, scale = 0.0;
    for (std::size_t c = 0; c < nc; ++c) {
      for (std::size_t d = 0; d < nc; ++d) {
        diff = std::max(diff, std::abs(coarse.coefficient(c, d) -
                                       explicit_ac[c * nc + d]));
        scale = std::max(scale, std::abs(explicit_ac[c * nc + d]));
      }
    }
    EXPECT_LE(diff, 1e-12 * scale);
  }
}

TEST(ColumnCoarseSpace, NonPositivePivotThrowsTyped) {
  // An aggregate whose Galerkin diagonal is negative, or not a number,
  // stops the factorization with a typed error instead of a NaN factor.
  StencilOperator negative = random_stencil(5, 4, 2, 71);
  negative.add_to_diagonal(negative.cell_index(4, 3, 1), -1.0e3);
  EXPECT_THROW((void)ColumnCoarseSpace(negative), InvariantError);

  StencilOperator not_a_number = random_stencil(5, 4, 2, 73);
  not_a_number.add_to_diagonal(0, std::nan(""));
  EXPECT_THROW((void)ColumnCoarseSpace(not_a_number), InvariantError);
}

TEST(TwoLevelCg, MatchesDenseSolve) {
  unsigned seed = 600;
  for (const auto& [nx, ny, nz] : coarse_grids()) {
    SCOPED_TRACE(std::to_string(nx) + "x" + std::to_string(ny) + "x" +
                 std::to_string(nz));
    const StencilOperator op = random_stencil(nx, ny, nz, ++seed);
    const std::vector<double> b = random_vector(op.size(), ++seed);
    const std::vector<double> x_dense = solve_dense(dense_of(op), b);
    ColumnCoarseSpace coarse(op);
    CgWorkspace work;
    std::vector<double> x;
    const CgResult r = solve_cg(
        op, b, x, {.tolerance = 1e-13, .ssor_omega = 1.7}, work, &coarse);
    EXPECT_LE(r.residual, 1e-13);
    EXPECT_LE(max_relative_error(x, x_dense), 1e-10);
  }
}

TEST(TwoLevelCg, CoarseCorrectionIsExactOnTheCoarseSpace) {
  // For r = A·P·y the correction P·A_c⁻¹·Pᵀ·r is P·y: it checks the
  // restriction, the banded factor and the prolongation together.
  constexpr std::size_t k = ColumnCoarseSpace::kAggregateWidth;
  const StencilOperator op = random_stencil(3 * k + 1, 2 * k + 2, 3, 79);
  ColumnCoarseSpace coarse(op);
  const std::vector<double> y = random_vector(coarse.size(), 83);
  std::vector<double> py(op.size());
  for (std::size_t i = 0; i < op.size(); ++i) {
    const std::size_t ix = i % op.nx();
    const std::size_t iy = i / op.nx() % op.ny();
    py[i] = y[iy / k * coarse.cx() + ix / k];
  }
  std::vector<double> r;
  op.multiply(py, r);
  std::vector<double> z(op.size(), 0.0);
  coarse.add_correction(r, z);
  EXPECT_LE(max_relative_error(z, py), 1e-12);
}

// ------------------------------------------------- ThreadPool behavior --

TEST(ThreadPool, ParallelForCoversRangeExactlyOnce) {
  ThreadPool pool(4);
  std::vector<int> hits(1000, 0);
  pool.parallel_for(hits.size(), [&](std::size_t i) { ++hits[i]; });
  for (const int h : hits) EXPECT_EQ(h, 1);
}

TEST(ThreadPool, CgResultsAreIdenticalForOneAndManyThreads) {
  // End-to-end determinism: solve the same large stencil system with the
  // global pool at 1 and at 4 threads, with SSOR alone and two-level;
  // every temperature must match bitwise, and so must the iteration count.
  const StencilOperator op = random_stencil(20, 20, 6, 47);
  const std::vector<double> b = random_vector(op.size(), 53);
  for (const bool two_level : {false, true}) {
    SCOPED_TRACE(two_level ? "two-level" : "SSOR");
    const auto solve = [&](std::size_t threads, std::vector<double>& x) {
      ThreadPool::set_global_thread_count(threads);
      ColumnCoarseSpace coarse(op);
      CgWorkspace work;
      return solve_cg(op, b, x, {.tolerance = 1e-10}, work,
                      two_level ? &coarse : nullptr);
    };
    std::vector<double> x1, x4;
    const CgResult r1 = solve(1, x1);
    const CgResult r4 = solve(4, x4);
    ThreadPool::set_global_thread_count(0);  // restore default

    EXPECT_EQ(r1.iterations, r4.iterations);
    EXPECT_EQ(x1, x4);  // bitwise
  }
}

TEST(ThreadPool, EnvOverrideParsesPositiveIntegers) {
  // default_thread_count() must never return 0, whatever the env says.
  EXPECT_GE(ThreadPool::default_thread_count(), 1u);
}

}  // namespace
}  // namespace tpcool::util
