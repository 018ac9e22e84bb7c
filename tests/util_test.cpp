// Tests for tpcool::util — grids, linear solvers, root finding,
// interpolation, statistics, CSV and table output, and the strict parse of
// integer environment overrides.

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
#include "tpcool/util/logging.hpp"
#include "tpcool/util/rootfind.hpp"
#include "tpcool/util/statistics.hpp"
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

TEST(Grid2D, SumMinMax) {
  Grid2D<double> g(2, 2, 1.0);
  g(1, 1) = 5.0;
  g(0, 0) = -2.0;
  EXPECT_DOUBLE_EQ(grid_sum(g), 5.0);
  EXPECT_DOUBLE_EQ(grid_max(g), 5.0);
  EXPECT_DOUBLE_EQ(grid_min(g), -2.0);
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
  SparseMatrix m(3);
  for (std::size_t i = 0; i < 3; ++i) m.add(i, i, 1.0);
  m.finalize();
  std::vector<double> b{1.0, -2.0, 3.0}, x;
  solve_cg(m, b, x);
  for (std::size_t i = 0; i < 3; ++i) EXPECT_NEAR(x[i], b[i], 1e-10);
}

TEST(SolveCg, MatchesDenseOnRandomSpd) {
  // Random SPD system A = B^T B + n I, cross-checked against dense LU.
  std::mt19937 rng(42);
  std::uniform_real_distribution<double> dist(-1.0, 1.0);
  constexpr std::size_t n = 12;
  std::vector<double> b_mat(n * n);
  for (auto& v : b_mat) v = dist(rng);
  std::vector<double> a_dense(n * n, 0.0);
  for (std::size_t i = 0; i < n; ++i) {
    for (std::size_t j = 0; j < n; ++j) {
      double s = 0.0;
      for (std::size_t k = 0; k < n; ++k) {
        s += b_mat[k * n + i] * b_mat[k * n + j];
      }
      a_dense[i * n + j] = s + (i == j ? static_cast<double>(n) : 0.0);
    }
  }
  SparseMatrix a(n);
  for (std::size_t i = 0; i < n; ++i) {
    for (std::size_t j = 0; j < n; ++j) a.add(i, j, a_dense[i * n + j]);
  }
  a.finalize();
  ASSERT_TRUE(a.is_symmetric(1e-12));

  std::vector<double> rhs(n);
  for (auto& v : rhs) v = dist(rng);
  std::vector<double> x_cg;
  solve_cg(a, rhs, x_cg, {.tolerance = 1e-12});
  const std::vector<double> x_lu = solve_dense(a_dense, rhs);
  for (std::size_t i = 0; i < n; ++i) EXPECT_NEAR(x_cg[i], x_lu[i], 1e-8);
}

TEST(SolveCg, ZeroRhsGivesZero) {
  SparseMatrix m(2);
  m.add(0, 0, 1.0);
  m.add(1, 1, 1.0);
  m.finalize();
  std::vector<double> x{5.0, 5.0};
  const CgResult r = solve_cg(m, {0.0, 0.0}, x);
  EXPECT_EQ(r.iterations, 0u);
  EXPECT_DOUBLE_EQ(x[0], 0.0);
}

TEST(SolveCg, OneByOneSystem) {
  SparseMatrix m(1);
  m.add(0, 0, 5.0);
  m.finalize();
  std::vector<double> x;
  const CgResult r = solve_cg(m, {10.0}, x);
  EXPECT_NEAR(x[0], 2.0, 1e-12);
  EXPECT_LE(r.iterations, 1u);
}

TEST(SolveCg, ExactWarmStartConvergesInZeroIterations) {
  SparseMatrix m(2);
  m.add(0, 0, 2.0);
  m.add(1, 1, 4.0);
  m.finalize();
  std::vector<double> x{3.0, 0.5};  // exact solution of {6, 2}
  const CgResult r = solve_cg(m, {6.0, 2.0}, x);
  EXPECT_EQ(r.iterations, 0u);
  EXPECT_DOUBLE_EQ(x[0], 3.0);
  EXPECT_DOUBLE_EQ(x[1], 0.5);
}

TEST(SolveCg, SsorPreconditionerSolvesSparseSystem) {
  constexpr std::size_t n = 30;
  SparseMatrix m(n);
  for (std::size_t i = 0; i < n; ++i) {
    double diag = 0.3;
    if (i > 0) {
      m.add(i, i - 1, -1.0);
      diag += 1.0;
    }
    if (i + 1 < n) {
      m.add(i, i + 1, -1.0);
      diag += 1.0;
    }
    m.add(i, i, diag);
  }
  m.finalize();
  std::vector<double> b(n, 1.0), x_ssor, x_jacobi;
  const CgResult ssor = solve_cg(
      m, b, x_ssor,
      {.tolerance = 1e-11, .preconditioner = Preconditioner::kSsor});
  const CgResult jacobi = solve_cg(m, b, x_jacobi, {.tolerance = 1e-11});
  EXPECT_LE(ssor.residual, 1e-11);
  EXPECT_LE(ssor.iterations, jacobi.iterations);
  for (std::size_t i = 0; i < n; ++i) EXPECT_NEAR(x_ssor[i], x_jacobi[i], 1e-8);
}

TEST(SolveCg, NonConvergedThrowReportsIterations) {
  constexpr std::size_t n = 50;
  SparseMatrix m(n);
  for (std::size_t i = 0; i < n; ++i) {
    double diag = 1e-3;
    if (i > 0) {
      m.add(i, i - 1, -1.0);
      diag += 1.0;
    }
    if (i + 1 < n) {
      m.add(i, i + 1, -1.0);
      diag += 1.0;
    }
    m.add(i, i, diag);
  }
  m.finalize();
  std::vector<double> x;
  try {
    (void)solve_cg(m, std::vector<double>(n, 1.0), x,
                   {.tolerance = 1e-15, .max_iterations = 3});
    FAIL() << "expected ConvergenceError";
  } catch (const ConvergenceError& e) {
    EXPECT_NE(std::string(e.what()).find("after 3 iterations"),
              std::string::npos)
        << e.what();
  }
}

TEST(SolveCg, NonSpdDiagonalThrows) {
  SparseMatrix m(2);
  m.add(0, 0, -1.0);
  m.add(1, 1, 1.0);
  m.finalize();
  std::vector<double> x;
  EXPECT_THROW(solve_cg(m, {1.0, 1.0}, x), InvariantError);
}

// -------------------------------------------------------------------- SOR --

TEST(SolveSor, SolvesIdentity) {
  SparseMatrix m(3);
  for (std::size_t i = 0; i < 3; ++i) m.add(i, i, 2.0);
  m.finalize();
  std::vector<double> x;
  solve_sor(m, {2.0, -4.0, 6.0}, x);
  EXPECT_NEAR(x[0], 1.0, 1e-8);
  EXPECT_NEAR(x[1], -2.0, 1e-8);
  EXPECT_NEAR(x[2], 3.0, 1e-8);
}

TEST(SolveSor, AgreesWithCgOnLaplacianLikeSystem) {
  // 1D diffusion chain with Dirichlet-ish end terms: the same structure as
  // one row of the thermal operator.
  constexpr std::size_t n = 40;
  SparseMatrix m(n);
  for (std::size_t i = 0; i < n; ++i) {
    double diag = 0.2;  // boundary leak keeps the system SPD
    if (i > 0) {
      m.add(i, i - 1, -1.0);
      diag += 1.0;
    }
    if (i + 1 < n) {
      m.add(i, i + 1, -1.0);
      diag += 1.0;
    }
    m.add(i, i, diag);
  }
  m.finalize();
  std::vector<double> b(n, 0.0);
  b[n / 2] = 5.0;
  std::vector<double> x_cg, x_sor;
  solve_cg(m, b, x_cg, {.tolerance = 1e-11});
  solve_sor(m, b, x_sor, {.relaxation = 1.6, .tolerance = 1e-11});
  for (std::size_t i = 0; i < n; ++i) EXPECT_NEAR(x_sor[i], x_cg[i], 1e-7);
}

TEST(SolveSor, GaussSeidelIsOmegaOne) {
  SparseMatrix m(2);
  m.add(0, 0, 4.0);
  m.add(0, 1, 1.0);
  m.add(1, 0, 1.0);
  m.add(1, 1, 3.0);
  m.finalize();
  std::vector<double> x;
  const CgResult r = solve_sor(m, {1.0, 2.0}, x, {.relaxation = 1.0});
  EXPECT_LE(r.residual, 1e-9);
  // Check against the dense solution.
  const auto exact = solve_dense({4.0, 1.0, 1.0, 3.0}, {1.0, 2.0});
  EXPECT_NEAR(x[0], exact[0], 1e-7);
  EXPECT_NEAR(x[1], exact[1], 1e-7);
}

TEST(SolveSor, ZeroRhsGivesZero) {
  SparseMatrix m(2);
  m.add(0, 0, 1.0);
  m.add(1, 1, 1.0);
  m.finalize();
  std::vector<double> x{5.0, -5.0};
  const CgResult r = solve_sor(m, {0.0, 0.0}, x);
  EXPECT_EQ(r.iterations, 0u);
  EXPECT_DOUBLE_EQ(x[0], 0.0);
  EXPECT_DOUBLE_EQ(x[1], 0.0);
}

TEST(SolveSor, OneByOneSystem) {
  SparseMatrix m(1);
  m.add(0, 0, 2.0);
  m.finalize();
  std::vector<double> x;
  // Gauss-Seidel (ω = 1) lands exactly in one sweep; the first residual
  // check happens after the 4-sweep block.
  const CgResult r = solve_sor(m, {6.0}, x, {.relaxation = 1.0});
  EXPECT_NEAR(x[0], 3.0, 1e-9);
  EXPECT_LE(r.iterations, 4u);
}

TEST(SolveSor, ExactWarmStartConvergesInZeroIterations) {
  SparseMatrix m(2);
  m.add(0, 0, 4.0);
  m.add(0, 1, 1.0);
  m.add(1, 0, 1.0);
  m.add(1, 1, 3.0);
  m.finalize();
  const auto exact = solve_dense({4.0, 1.0, 1.0, 3.0}, {1.0, 2.0});
  std::vector<double> x = exact;
  const CgResult r = solve_sor(m, {1.0, 2.0}, x, {.tolerance = 1e-8});
  EXPECT_EQ(r.iterations, 0u);
  EXPECT_EQ(x, exact);  // untouched
}

TEST(SolveSor, RejectsBadRelaxation) {
  SparseMatrix m(1);
  m.add(0, 0, 1.0);
  m.finalize();
  std::vector<double> x;
  EXPECT_THROW(solve_sor(m, {1.0}, x, {.relaxation = 0.0}),
               PreconditionError);
  EXPECT_THROW(solve_sor(m, {1.0}, x, {.relaxation = 2.0}),
               PreconditionError);
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

TEST(FixedPoint, ConvergesToSqrt) {
  // Babylonian iteration for sqrt(2).
  const double r =
      fixed_point([](double x) { return 0.5 * (x + 2.0 / x); }, 1.0,
                  {.tolerance = 1e-12});
  EXPECT_NEAR(r, std::sqrt(2.0), 1e-9);
}

TEST(FixedPoint, DivergentThrows) {
  EXPECT_THROW((void)fixed_point([](double x) { return 2.0 * x + 1.0; }, 1.0,
                           {.max_iterations = 20}),
               ConvergenceError);
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

// ------------------------------------------------------------- statistics --

TEST(Statistics, Summary) {
  const std::vector<double> v{1.0, 2.0, 3.0, 4.0};
  const Summary s = summarize(v);
  EXPECT_DOUBLE_EQ(s.min, 1.0);
  EXPECT_DOUBLE_EQ(s.max, 4.0);
  EXPECT_DOUBLE_EQ(s.mean, 2.5);
  EXPECT_NEAR(s.stddev, std::sqrt(1.25), 1e-12);
  EXPECT_EQ(s.count, 4u);
}

TEST(Statistics, Percentile) {
  const std::vector<double> v{4.0, 1.0, 3.0, 2.0};
  EXPECT_DOUBLE_EQ(percentile(v, 0.0), 1.0);
  EXPECT_DOUBLE_EQ(percentile(v, 100.0), 4.0);
  EXPECT_DOUBLE_EQ(percentile(v, 50.0), 2.5);
}

TEST(Statistics, EmptyThrows) {
  const std::vector<double> v;
  EXPECT_THROW((void)summarize(v), PreconditionError);
  EXPECT_THROW((void)mean(v), PreconditionError);
}

// -------------------------------------------------------------------- csv --

TEST(CsvWriter, QuotesSpecialCharacters) {
  std::ostringstream os;
  CsvWriter w(os);
  w.header({"a", "b,c", "d\"e"});
  w.field(1.5).field(std::string("x"));
  w.end_row();
  const std::string out = os.str();
  EXPECT_NE(out.find("\"b,c\""), std::string::npos);
  EXPECT_NE(out.find("\"d\"\"e\""), std::string::npos);
  EXPECT_NE(out.find("1.5,x"), std::string::npos);
}

TEST(CsvWriter, GridDumpHasOneRowPerY) {
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
TEST(CsvWriter, GridRoundTripPreservesValues) {
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

// Round-trip through the field API: numeric fields re-parse exactly and
// quoted strings keep their separators.
TEST(CsvWriter, FieldRowRoundTrip) {
  std::ostringstream os;
  CsvWriter w(os);
  w.field(std::string("label,with,commas")).field(-1.25).field(3.0);
  w.end_row();
  w.row({0.5, 2.0, 100.0});
  std::istringstream is(os.str());
  std::string first, second;
  ASSERT_TRUE(static_cast<bool>(std::getline(is, first)));
  ASSERT_TRUE(static_cast<bool>(std::getline(is, second)));
  EXPECT_EQ(first.substr(0, 20), "\"label,with,commas\",");
  EXPECT_NE(first.find("-1.25"), std::string::npos);
  std::istringstream ls(second);
  std::string cell;
  std::vector<double> values;
  while (std::getline(ls, cell, ',')) values.push_back(std::stod(cell));
  EXPECT_EQ(values, (std::vector<double>{0.5, 2.0, 100.0}));
}

// ------------------------------------------------- integer env overrides --

TEST(EnvPositiveInteger, AcceptsOnlyWholePositiveIntegers) {
  constexpr const char* kName = "TPCOOL_TEST_POSITIVE_INTEGER";
  ASSERT_EQ(unsetenv(kName), 0);
  EXPECT_EQ(env_positive_integer(kName, 7), 7u);
  ASSERT_EQ(setenv(kName, "256", 1), 0);
  EXPECT_EQ(env_positive_integer(kName, 7), 256u);
  ::testing::internal::CaptureStderr();
  for (const char* bad : {"256MB", "1e3", "-3", "+3", " 3", "0", ""}) {
    ASSERT_EQ(setenv(kName, bad, 1), 0);
    EXPECT_EQ(env_positive_integer(kName, 7), 7u) << '"' << bad << '"';
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
  ::testing::internal::CaptureStderr();
  for (const char* bad : {"4x", "0", ""}) {
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
