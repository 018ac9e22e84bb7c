// Tests for tpcool::util — grids, linear solvers, root finding,
// interpolation, CSV and table output, and the strict parse of integer
// environment overrides.

#include <gtest/gtest.h>

#include <cmath>
#include <cstdlib>
#include <random>
#include <sstream>
#include <string>
#include <thread>

#include "tpcool/util/csv.hpp"
#include "tpcool/util/error.hpp"
#include "tpcool/util/grid2d.hpp"
#include "tpcool/util/interp.hpp"
#include "tpcool/util/linear_solver.hpp"
#include "tpcool/util/rootfind.hpp"
#include "tpcool/util/stencil_operator.hpp"
#include "tpcool/util/table.hpp"
#include "tpcool/util/thread_pool.hpp"

namespace tpcool::util {
namespace {

// ----------------------------------------------------------------- Grid2D --

TEST(Grid2D, StoresAndRetrieves) {
  Grid2D<double> g(4, 3, 1.5);
  EXPECT_EQ(g.nx(), 4u);
  EXPECT_EQ(g.ny(), 3u);
  EXPECT_EQ(g.size(), 12u);
  EXPECT_DOUBLE_EQ(g.at(0, 0), 1.5);
  g.at(3, 2) = 7.0;
  EXPECT_DOUBLE_EQ(g(3, 2), 7.0);
}

TEST(Grid2D, RowMajorLayout) {
  Grid2D<int> g(3, 2, 0);
  g(1, 0) = 10;
  g(0, 1) = 20;
  EXPECT_EQ(g.data()[1], 10);   // x varies fastest
  EXPECT_EQ(g.data()[3], 20);
}

TEST(Grid2D, OutOfRangeThrows) {
  Grid2D<double> g(2, 2);
  EXPECT_THROW((void)g.at(2, 0), PreconditionError);
  EXPECT_THROW((void)g.at(0, 2), PreconditionError);
}

TEST(Grid2D, ZeroSizeThrows) {
  EXPECT_THROW(Grid2D<double>(0, 3), PreconditionError);
  EXPECT_THROW(Grid2D<double>(3, 0), PreconditionError);
}

TEST(Grid2D, SumMax) {
  Grid2D<double> g(2, 2, 1.0);
  g(1, 1) = 5.0;
  g(0, 0) = -2.0;
  EXPECT_DOUBLE_EQ(grid_sum(g), 5.0);
  EXPECT_DOUBLE_EQ(grid_max(g), 5.0);
}

TEST(Grid2D, ApplyTransformsAllElements) {
  Grid2D<double> g(3, 3, 2.0);
  g.apply([](double v) { return v * v; });
  EXPECT_DOUBLE_EQ(grid_sum(g), 9 * 4.0);
}

// ----------------------------------------------------------- SparseMatrix --

TEST(SparseMatrix, AccumulatesDuplicates) {
  SparseMatrix m(2);
  m.add(0, 0, 1.0);
  m.add(0, 0, 2.0);
  m.add(1, 1, 4.0);
  m.finalize();
  EXPECT_DOUBLE_EQ(m.coeff(0, 0), 3.0);
  EXPECT_DOUBLE_EQ(m.coeff(1, 1), 4.0);
  EXPECT_DOUBLE_EQ(m.coeff(0, 1), 0.0);
  EXPECT_EQ(m.nonzeros(), 2u);
}

TEST(SparseMatrix, MultiplyMatchesHandComputed) {
  SparseMatrix m(3);
  m.add(0, 0, 2.0);
  m.add(0, 2, -1.0);
  m.add(1, 1, 3.0);
  m.add(2, 0, -1.0);
  m.add(2, 2, 2.0);
  m.finalize();
  std::vector<double> x{1.0, 2.0, 3.0}, y;
  m.multiply(x, y);
  EXPECT_DOUBLE_EQ(y[0], 2.0 - 3.0);
  EXPECT_DOUBLE_EQ(y[1], 6.0);
  EXPECT_DOUBLE_EQ(y[2], -1.0 + 6.0);
}

TEST(SparseMatrix, AddAfterFinalizeThrows) {
  SparseMatrix m(2);
  m.add(0, 0, 1.0);
  m.finalize();
  EXPECT_THROW(m.add(1, 1, 1.0), PreconditionError);
}

TEST(SparseMatrix, SymmetryCheck) {
  SparseMatrix m(2);
  m.add(0, 1, 1.0);
  m.add(1, 0, 1.0);
  m.add(0, 0, 2.0);
  m.add(1, 1, 2.0);
  m.finalize();
  EXPECT_TRUE(m.is_symmetric());

  SparseMatrix n(2);
  n.add(0, 1, 1.0);
  n.add(0, 0, 1.0);
  n.add(1, 1, 1.0);
  n.finalize();
  EXPECT_FALSE(n.is_symmetric());
}

// --------------------------------------------------------------------- CG --

TEST(SolveCg, SolvesIdentity) {
  StencilOperator op(3, 1, 1);
  for (std::size_t i = 0; i < 3; ++i) op.add_to_diagonal(i, 1.0);
  std::vector<double> b{1.0, -2.0, 3.0}, x;
  solve_cg(op, b, x);
  for (std::size_t i = 0; i < 3; ++i) EXPECT_NEAR(x[i], b[i], 1e-10);
}

TEST(SolveCg, MatchesDenseOnRandomSpd) {
  // Random diagonally dominant 7-point stencil (random face couplings plus
  // a positive leak on every diagonal), cross-checked against dense LU.
  std::mt19937 rng(42);
  std::uniform_real_distribution<double> dist(0.1, 1.0);
  constexpr std::size_t nx = 4, ny = 3, nz = 2;
  StencilOperator op(nx, ny, nz);
  for (std::size_t iz = 0; iz < nz; ++iz) {
    for (std::size_t iy = 0; iy < ny; ++iy) {
      for (std::size_t ix = 0; ix < nx; ++ix) {
        const std::size_t i = op.cell_index(ix, iy, iz);
        if (ix + 1 < nx) op.add_coupling(i, StencilBand::kXPlus, dist(rng));
        if (iy + 1 < ny) op.add_coupling(i, StencilBand::kYPlus, dist(rng));
        if (iz + 1 < nz) op.add_coupling(i, StencilBand::kZPlus, dist(rng));
        op.add_to_diagonal(i, dist(rng));
      }
    }
  }
  const std::size_t n = op.size();
  const SparseMatrix csr = op.to_sparse();
  std::vector<double> a_dense(n * n);
  for (std::size_t i = 0; i < n; ++i) {
    for (std::size_t j = 0; j < n; ++j) a_dense[i * n + j] = csr.coeff(i, j);
  }

  std::uniform_real_distribution<double> rhs_dist(-1.0, 1.0);
  std::vector<double> rhs(n);
  for (auto& v : rhs) v = rhs_dist(rng);
  std::vector<double> x_cg;
  solve_cg(op, rhs, x_cg, {.tolerance = 1e-12});
  const std::vector<double> x_lu = solve_dense(a_dense, rhs);
  for (std::size_t i = 0; i < n; ++i) EXPECT_NEAR(x_cg[i], x_lu[i], 1e-8);
}

TEST(SolveCg, NonSpdDiagonalThrows) {
  StencilOperator op(2, 1, 1);
  op.add_to_diagonal(0, -1.0);
  op.add_to_diagonal(1, 1.0);
  std::vector<double> x;
  EXPECT_THROW(solve_cg(op, {1.0, 1.0}, x), InvariantError);
}

TEST(SparseMatrix, RowVisitor) {
  SparseMatrix m(3);
  m.add(1, 0, 2.0);
  m.add(1, 2, 3.0);
  m.finalize();
  double sum = 0.0;
  std::size_t count = 0;
  m.for_each_in_row(1, [&](std::size_t col, double v) {
    sum += v * static_cast<double>(col + 1);
    ++count;
  });
  EXPECT_EQ(count, 2u);
  EXPECT_DOUBLE_EQ(sum, 2.0 * 1.0 + 3.0 * 3.0);
}

TEST(SolveDense, SingularThrows) {
  EXPECT_THROW(solve_dense({1.0, 2.0, 2.0, 4.0}, {1.0, 2.0}), InvariantError);
}

TEST(SolveDense, SolvesWithPivoting) {
  // Requires a row swap: the first pivot is zero.
  const std::vector<double> x = solve_dense({0.0, 1.0, 1.0, 0.0}, {3.0, 7.0});
  EXPECT_NEAR(x[0], 7.0, 1e-12);
  EXPECT_NEAR(x[1], 3.0, 1e-12);
}

// --------------------------------------------------------------- rootfind --

TEST(Bisect, FindsRootOfCubic) {
  const double r = bisect([](double x) { return x * x * x - 8.0; }, 0.0, 10.0);
  EXPECT_NEAR(r, 2.0, 1e-7);
}

TEST(Bisect, EndpointRootReturned) {
  EXPECT_DOUBLE_EQ(bisect([](double x) { return x; }, 0.0, 1.0), 0.0);
}

TEST(Bisect, NonBracketingThrows) {
  EXPECT_THROW((void)bisect([](double x) { return x * x + 1.0; }, -1.0, 1.0),
               PreconditionError);
}

// ----------------------------------------------------------------- interp --

TEST(LinearTable, InterpolatesAndClamps) {
  const LinearTable t{{0.0, 0.0}, {1.0, 10.0}, {2.0, 40.0}};
  EXPECT_DOUBLE_EQ(t(0.5), 5.0);
  EXPECT_DOUBLE_EQ(t(1.5), 25.0);
  EXPECT_DOUBLE_EQ(t(-1.0), 0.0);   // clamped
  EXPECT_DOUBLE_EQ(t(3.0), 40.0);   // clamped
}

TEST(LinearTable, RejectsUnsortedOrDuplicateX) {
  EXPECT_THROW(LinearTable({{1.0, 0.0}, {0.0, 1.0}}), PreconditionError);
  EXPECT_THROW(LinearTable({{1.0, 0.0}, {1.0, 1.0}}), PreconditionError);
}

TEST(Clamp, Bounds) {
  EXPECT_DOUBLE_EQ(clamp(5.0, 0.0, 1.0), 1.0);
  EXPECT_DOUBLE_EQ(clamp(-5.0, 0.0, 1.0), 0.0);
  EXPECT_DOUBLE_EQ(clamp(0.5, 0.0, 1.0), 0.5);
  EXPECT_THROW((void)clamp(0.0, 1.0, 0.0), PreconditionError);
}

// -------------------------------------------------------------------- csv --

TEST(WriteGridCsv, OneRowPerY) {
  Grid2D<double> g(3, 2, 0.0);
  std::ostringstream os;
  write_grid_csv(os, g);
  std::size_t lines = 0;
  for (const char c : os.str()) lines += (c == '\n');
  EXPECT_EQ(lines, 2u);
}

// ------------------------------------------------------------------ table --

TEST(TablePrinter, AlignsAndCounts) {
  TablePrinter t({"name", "value"});
  t.add_row({"x", "1"});
  t.add_row({"longer-name", "2"});
  EXPECT_EQ(t.rows(), 2u);
  std::ostringstream os;
  t.print(os);
  EXPECT_NE(os.str().find("longer-name"), std::string::npos);
  EXPECT_THROW(t.add_row({"only-one-column"}), PreconditionError);
}

TEST(TablePrinter, FormatsDoubles) {
  EXPECT_EQ(TablePrinter::fmt(3.14159, 2), "3.14");
  EXPECT_EQ(TablePrinter::fmt(10.0, 1), "10.0");
}

TEST(TablePrinter, EmptyTablePrintsHeaderOnly) {
  TablePrinter t({"alpha", "beta"});
  EXPECT_EQ(t.rows(), 0u);
  std::ostringstream os;
  t.print(os);
  const std::string out = os.str();
  EXPECT_NE(out.find("alpha"), std::string::npos);
  EXPECT_NE(out.find("beta"), std::string::npos);
  // Header + underline, no data rows.
  std::size_t lines = 0;
  for (const char c : out) lines += (c == '\n');
  EXPECT_EQ(lines, 2u);
}

TEST(TablePrinter, SingleRowWiderThanHeader) {
  TablePrinter t({"h"});
  t.add_row({"a-much-wider-cell"});
  std::ostringstream os;
  t.print(os);
  const std::string out = os.str();
  EXPECT_NE(out.find("a-much-wider-cell"), std::string::npos);
  std::size_t lines = 0;
  for (const char c : out) lines += (c == '\n');
  EXPECT_EQ(lines, 3u);
}

// Round-trip: values written by write_grid_csv parse back to the exact grid.
TEST(WriteGridCsv, RoundTripPreservesValues) {
  Grid2D<double> g(3, 2, 0.0);
  for (std::size_t iy = 0; iy < 2; ++iy) {
    for (std::size_t ix = 0; ix < 3; ++ix) {
      g.at(ix, iy) = 10.0 * static_cast<double>(iy) +
                     static_cast<double>(ix) + 0.0625;  // exact in binary
    }
  }
  std::ostringstream os;
  write_grid_csv(os, g);

  std::istringstream is(os.str());
  std::vector<std::vector<double>> parsed;
  std::string line;
  while (std::getline(is, line)) {
    std::vector<double> row;
    std::istringstream ls(line);
    std::string cell;
    while (std::getline(ls, cell, ',')) row.push_back(std::stod(cell));
    parsed.push_back(row);
  }
  ASSERT_EQ(parsed.size(), g.ny());
  for (auto& row : parsed) ASSERT_EQ(row.size(), g.nx());
  // North row first: the last parsed line is iy = 0.
  for (std::size_t iy = 0; iy < g.ny(); ++iy) {
    for (std::size_t ix = 0; ix < g.nx(); ++ix) {
      EXPECT_DOUBLE_EQ(parsed[g.ny() - 1 - iy][ix], g.at(ix, iy))
          << "ix=" << ix << " iy=" << iy;
    }
  }
}

// ------------------------------------------------- integer env overrides --

TEST(EnvPositiveInteger, AcceptsOnlyWholePositiveIntegers) {
  constexpr const char* kName = "TPCOOL_TEST_POSITIVE_INTEGER";
  ASSERT_EQ(unsetenv(kName), 0);
  EXPECT_EQ(env_positive_integer(kName, 7, 1000), 7u);
  ASSERT_EQ(setenv(kName, "256", 1), 0);
  EXPECT_EQ(env_positive_integer(kName, 7, 1000), 256u);
  ::testing::internal::CaptureStderr();
  for (const char* bad : {"256MB", "1e3", "-3", "+3", " 3", "0", "", "1001"}) {
    ASSERT_EQ(setenv(kName, bad, 1), 0);
    EXPECT_EQ(env_positive_integer(kName, 7, 1000), 7u) << '"' << bad << '"';
  }
  // One warning for the variable, naming the first rejected value.
  const std::string warned = ::testing::internal::GetCapturedStderr();
  EXPECT_NE(warned.find(std::string(kName) + "=256MB"), std::string::npos)
      << warned;
  EXPECT_EQ(warned.find(kName, warned.find(kName) + 1), std::string::npos)
      << warned;
  ASSERT_EQ(unsetenv(kName), 0);
}

TEST(EnvPositiveInteger, ThreadCountOverrideIsStrict) {
  const unsigned hw = std::thread::hardware_concurrency();
  const std::size_t hardware = hw == 0 ? 1 : hw;
  ASSERT_EQ(setenv("TPCOOL_NUM_THREADS", "3", 1), 0);
  EXPECT_EQ(ThreadPool::default_thread_count(), 3u);
  ASSERT_EQ(setenv("TPCOOL_NUM_THREADS", "1024", 1), 0);
  EXPECT_EQ(ThreadPool::default_thread_count(), ThreadPool::kMaxThreads);
  ::testing::internal::CaptureStderr();
  // The last two would throw in the pool's reserve() or start 99,999
  // threads; only default_thread_count() runs here, no pool is built.
  for (const char* bad :
       {"4x", "0", "", "18446744073709551615", "100000"}) {
    ASSERT_EQ(setenv("TPCOOL_NUM_THREADS", bad, 1), 0);
    EXPECT_EQ(ThreadPool::default_thread_count(), hardware)
        << '"' << bad << '"';
  }
  EXPECT_NE(::testing::internal::GetCapturedStderr().find(
                "TPCOOL_NUM_THREADS=4x"),
            std::string::npos);
  ASSERT_EQ(unsetenv("TPCOOL_NUM_THREADS"), 0);
  EXPECT_EQ(ThreadPool::default_thread_count(), hardware);
}

}  // namespace
}  // namespace tpcool::util
