// Tests for the structured solver core: StencilOperator vs SparseMatrix
// equivalence (SpMV and SSOR kernels, including degenerate grid shapes),
// ThreadPool determinism, and preconditioned-CG behavior on the banded
// operator.

#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <cmath>
#include <random>

#include "tpcool/thermal/grid.hpp"
#include "tpcool/thermal/stack.hpp"
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
    std::vector<double> inv_diag = op.diagonal();
    for (double& d : inv_diag) d = 1.0 / d;
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
  const std::vector<double> d1 = op.diagonal(), d2 = back.diagonal();
  for (std::size_t i = 0; i < op.size(); ++i) EXPECT_DOUBLE_EQ(d1[i], d2[i]);
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

TEST(StencilCg, MatchesSparseCgWithBothPreconditioners) {
  const StencilOperator op = random_stencil(6, 5, 4, 11);
  const SparseMatrix csr = op.to_sparse();
  const std::vector<double> b = random_vector(op.size(), 13);
  for (const Preconditioner pre :
       {Preconditioner::kJacobi, Preconditioner::kSsor}) {
    std::vector<double> x_stencil, x_csr;
    const CgOptions options{.tolerance = 1e-12, .preconditioner = pre};
    const CgResult r1 = solve_cg(op, b, x_stencil, options);
    const CgResult r2 = solve_cg(csr, b, x_csr, options);
    EXPECT_LE(r1.residual, 1e-12);
    EXPECT_LE(r2.residual, 1e-12);
    for (std::size_t i = 0; i < op.size(); ++i) {
      EXPECT_NEAR(x_stencil[i], x_csr[i], 1e-9);
    }
  }
}

TEST(StencilCg, SsorNeedsNoMoreIterationsThanJacobi) {
  const StencilOperator op = random_stencil(8, 8, 6, 17);
  const std::vector<double> b = random_vector(op.size(), 19);
  std::vector<double> x_j, x_s;
  const CgResult jacobi = solve_cg(
      op, b, x_j, {.tolerance = 1e-10, .preconditioner = Preconditioner::kJacobi});
  const CgResult ssor = solve_cg(
      op, b, x_s, {.tolerance = 1e-10, .preconditioner = Preconditioner::kSsor});
  EXPECT_LE(ssor.iterations, jacobi.iterations);
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
  const CgOptions converge{.tolerance = 1e-6,
                           .preconditioner = Preconditioner::kSsor};
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
  EXPECT_EQ(model.last_solve_stats().iterations, 33u);
  EXPECT_FALSE(model.last_solve_stats().near_converged);
}

// ------------------------------------------------- ThreadPool behavior --

TEST(ThreadPool, ParallelForCoversRangeExactlyOnce) {
  ThreadPool pool(4);
  std::vector<int> hits(1000, 0);
  pool.parallel_for(0, hits.size(), 37, [&](std::size_t lo, std::size_t hi) {
    for (std::size_t i = lo; i < hi; ++i) ++hits[i];
  });
  for (const int h : hits) EXPECT_EQ(h, 1);
}

TEST(ThreadPool, CgResultsAreIdenticalForOneAndManyThreads) {
  // End-to-end determinism: solve the same large stencil system with the
  // global pool at 1 and at 4 threads; every temperature must match
  // bitwise, and so must the iteration count.
  const StencilOperator op = random_stencil(20, 20, 6, 47);
  const std::vector<double> b = random_vector(op.size(), 53);

  ThreadPool::set_global_thread_count(1);
  std::vector<double> x1;
  const CgResult r1 = solve_cg(
      op, b, x1, {.tolerance = 1e-10, .preconditioner = Preconditioner::kSsor});

  ThreadPool::set_global_thread_count(4);
  std::vector<double> x4;
  const CgResult r4 = solve_cg(
      op, b, x4, {.tolerance = 1e-10, .preconditioner = Preconditioner::kSsor});
  ThreadPool::set_global_thread_count(0);  // restore default

  EXPECT_EQ(r1.iterations, r4.iterations);
  EXPECT_EQ(x1, x4);  // bitwise
}

TEST(ThreadPool, EnvOverrideParsesPositiveIntegers) {
  // default_thread_count() must never return 0, whatever the env says.
  EXPECT_GE(ThreadPool::default_thread_count(), 1u);
}

}  // namespace
}  // namespace tpcool::util
