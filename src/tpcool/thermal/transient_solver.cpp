#include <algorithm>
#include <cmath>

#include "tpcool/thermal/grid.hpp"
#include "tpcool/util/error.hpp"
#include "tpcool/util/telemetry.hpp"

namespace tpcool::thermal {

const std::vector<double>& ThermalModel::heat_capacity() const {
  if (capacity_j_k_.empty()) {
    capacity_j_k_.resize(cell_count());
    const double cell_area = stack_.grid.dx * stack_.grid.dy;
    for (std::size_t iz = 0; iz < nz(); ++iz) {
      const double vol = cell_area * stack_.layers[iz].thickness_m;
      for (std::size_t iy = 0; iy < ny(); ++iy) {
        for (std::size_t ix = 0; ix < nx(); ++ix) {
          capacity_j_k_[cell_index(ix, iy, iz)] =
              stack_.layers[iz].vol_heat_cap_j_m3k(ix, iy) * vol;
        }
      }
    }
  }
  return capacity_j_k_;
}

double ThermalModel::second_derivative_norm(
    const std::vector<double>& t) const {
  assemble();
  const std::size_t n = cell_count();
  TPCOOL_REQUIRE(t.size() == n, "state vector size mismatch");
  const std::vector<double>& capacity = heat_capacity();
  // C·T' = P + b − G·T with the boundary and sources frozen, so
  // T'' = −C⁻¹G·T'.
  std::vector<double> g_t(n);
  operator_.multiply(t, g_t);
  std::vector<double> rate = boundary_rhs_;
  add_power(rate);
  for (std::size_t i = 0; i < n; ++i) {
    rate[i] = (rate[i] - g_t[i]) / capacity[i];
  }
  std::vector<double> g_rate(n);
  operator_.multiply(rate, g_rate);
  double norm = 0.0;
  for (std::size_t i = 0; i < n; ++i) {
    norm = std::max(norm, std::abs(g_rate[i]) / capacity[i]);
  }
  return norm;
}

void ThermalModel::step_transient(const std::vector<double>& t,
                                  std::vector<double>& x, double dt_s,
                                  double tolerance) const {
  TPCOOL_REQUIRE(dt_s > 0.0, "time step must be positive");
  // A counter, not a span: adaptive segments take thousands of steps and
  // each one already shows up as a "cg" span underneath.
  if (util::telemetry_enabled()) {
    static util::TelemetryCounter& steps =
        util::Telemetry::instance().counter("thermal.transient_steps");
    steps.add(1.0);
  }
  assemble();
  const std::size_t n = cell_count();
  TPCOOL_REQUIRE(t.size() == n, "state vector size mismatch");
  TPCOOL_REQUIRE(x.size() == n, "step guess size mismatch");

  // Backward Euler: (C/dt + G)·T⁺ = C/dt·T + P + boundary.
  // G is the assembled steady operator; C/dt is diagonal, so the step
  // operator is the same 7-point stencil with a shifted diagonal — copy
  // the bands and augment, then reuse the shared PCG path.  The right-hand
  // side is complete before CG touches `x`, so `x` may alias `t`.
  const std::vector<double>& capacity = heat_capacity();
  std::vector<double>& cdiag = step_shift_;
  std::vector<double>& rhs = step_rhs_;
  cdiag.resize(n);
  rhs = boundary_rhs_;
  for (std::size_t i = 0; i < n; ++i) {
    cdiag[i] = capacity[i] / dt_s;
    rhs[i] += cdiag[i] * t[i];
  }
  add_power(rhs);

  if (!step_operator_valid_) {
    step_operator_ = operator_;  // copies the bands once per assembly
    step_operator_valid_ = true;
  }
  step_operator_.set_shifted_diagonal(operator_, cdiag);

  last_stats_ = util::solve_cg(
      step_operator_, rhs, x,
      {.tolerance = tolerance, .max_iterations = 20000}, step_cg_);
}

void ThermalModel::release_step_scratch() {
  step_operator_ = util::StencilOperator(1, 1, 1);
  step_operator_valid_ = false;
  step_shift_ = {};
  step_rhs_ = {};
  step_cg_ = {};
}

void ThermalModel::step_transient(std::vector<double>& t, double dt_s) const {
  // Warm start from the previous state: consecutive steps differ little.
  step_transient(t, t, dt_s);
}

double ThermalModel::step_transient_embedded(std::vector<double>& t,
                                             const std::vector<double>& full,
                                             double dt_s) const {
  TPCOOL_REQUIRE(dt_s > 0.0, "time step must be positive");
  TPCOOL_REQUIRE(full.size() == t.size(), "full step size mismatch");
  // Step doubling: the caller's full step against two half steps from the
  // same state.  The half-step solution is committed (it is the more
  // accurate one); the max-norm difference is the local error estimate.
  // Both half steps reuse the shared PCG path at the committed tolerance,
  // so the result is bit-identical for any thread count like every other
  // solve.
  const double half_dt_s = 0.5 * dt_s;
  step_transient(t, half_dt_s);
  step_transient(t, half_dt_s);
  double error_c = 0.0;
  for (std::size_t i = 0; i < t.size(); ++i) {
    error_c = std::max(error_c, std::abs(full[i] - t[i]));
  }
  return error_c;
}

}  // namespace tpcool::thermal
