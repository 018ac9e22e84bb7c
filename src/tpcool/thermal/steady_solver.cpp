#include "tpcool/thermal/grid.hpp"
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
  // SSOR-preconditioned CG over the banded operator: ~3-5x fewer
  // iterations than Jacobi on this stencil, and warm starts from `hint`
  // (previous fixed-point iterate or previous sweep point) cut the rest.
  last_stats_ = util::solve_cg(
      operator_, rhs, t,
      {.tolerance = tolerance,
       .max_iterations = 50000,
       .ssor_omega = 1.7});
  span.arg("cells", static_cast<double>(n));
  span.arg("iterations", static_cast<double>(last_stats_.iterations));
  span.arg("residual", last_stats_.residual);
  span.arg("warm", warm ? 1.0 : 0.0);
  span.arg("tolerance", tolerance);
  return t;
}

}  // namespace tpcool::thermal
