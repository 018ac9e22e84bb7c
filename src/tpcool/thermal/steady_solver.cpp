#include "tpcool/thermal/grid.hpp"
#include "tpcool/util/coarse_space.hpp"
#include "tpcool/util/error.hpp"
#include "tpcool/util/telemetry.hpp"

namespace tpcool::thermal {

std::vector<double> ThermalModel::solve_steady(
    const std::vector<double>& hint, double tolerance) const {
  TPCOOL_REQUIRE(tolerance > 0.0, "steady tolerance must be positive");
  util::TraceSpan span("steady_solve");
  assemble();
  const std::size_t n = cell_count();
  std::vector<double> rhs = boundary_rhs_;
  add_power(rhs);
  std::vector<double> t = hint;
  const bool warm = t.size() == n;
  if (!warm) t.assign(n, 40.0);  // rough initial guess [°C]
  // Two-level PCG over the banded operator: SSOR smooths the local error,
  // and the column-aggregate coarse correction removes the error that is
  // smooth across the package and constant up each column, on which SSOR
  // alone stalls (15,426 → 6,277 iterations on paper_battery).  Warm
  // starts from `hint` (previous fixed-point iterate or previous sweep
  // point) cut the rest.  Transient steps keep SSOR alone: their
  // operators are diagonally heavier, so the coarse term cut their
  // iterations by 17% at 1.7x the cost of each one.
  // The coarse space and the CG scratch live for this solve only: a model
  // that kept them would hold about 0.8 MB at 0.75 mm between solves, and
  // the experiment engine pools a dozen models.
  util::ColumnCoarseSpace coarse(operator_);
  util::CgWorkspace work;
  last_stats_ = util::solve_cg(
      operator_, rhs, t,
      {.tolerance = tolerance,
       .max_iterations = 50000,
       .ssor_omega = 1.7},
      work, &coarse);
  span.arg("cells", static_cast<double>(n));
  span.arg("coarse_cells", static_cast<double>(coarse.size()));
  span.arg("iterations", static_cast<double>(last_stats_.iterations));
  span.arg("residual", last_stats_.residual);
  span.arg("warm", warm ? 1.0 : 0.0);
  span.arg("tolerance", tolerance);
  return t;
}

}  // namespace tpcool::thermal
