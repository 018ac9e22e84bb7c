#pragma once
/// \file grid.hpp
/// \brief 3D finite-volume thermal model: conductance assembly and boundary
///        conditions over a StackModel.
///
/// Discretization: one cell per (ix, iy, layer); 7-point stencil with
/// harmonic-mean interface conductances (exactly the compact model family of
/// 3D-ICE / HotSpot).  Temperatures are in °C (the system is linear, so the
/// Kelvin offset cancels).

#include <cstddef>
#include <vector>

#include "tpcool/thermal/stack.hpp"
#include "tpcool/util/grid2d.hpp"
#include "tpcool/util/linear_solver.hpp"
#include "tpcool/util/stencil_operator.hpp"

namespace tpcool::thermal {

/// Convective boundary on the top surface: per-cell heat-transfer coefficient
/// and per-cell fluid temperature (the thermosyphon writes both).
struct TopBoundary {
  util::Grid2D<double> htc_w_m2k;   ///< h per cell; 0 = adiabatic cell.
  util::Grid2D<double> fluid_temp_c;
};

/// Assembled finite-volume model. Construction discretizes geometry;
/// boundary conditions and sources may be changed between solves.
class ThermalModel {
 public:
  explicit ThermalModel(StackModel stack);

  [[nodiscard]] const StackModel& stack() const noexcept { return stack_; }
  [[nodiscard]] std::size_t nx() const noexcept { return stack_.grid.nx; }
  [[nodiscard]] std::size_t ny() const noexcept { return stack_.grid.ny; }
  [[nodiscard]] std::size_t nz() const noexcept { return stack_.layer_count(); }
  [[nodiscard]] std::size_t cell_count() const noexcept {
    return nx() * ny() * nz();
  }

  [[nodiscard]] std::size_t cell_index(std::size_t ix, std::size_t iy,
                                       std::size_t iz) const {
    return (iz * ny() + iy) * nx() + ix;
  }

  /// Set the heat sources [W per cell] on the die layer.
  void set_power_map(const util::Grid2D<double>& watts);

  /// Convective top boundary (thermosyphon evaporator side).
  void set_top_boundary(TopBoundary boundary);

  /// Uniform convective top boundary helper.
  void set_top_boundary_uniform(double htc_w_m2k, double fluid_temp_c);

  /// Weak convection from the substrate bottom to board ambient.
  void set_bottom_boundary(double htc_w_m2k, double ambient_c);

  /// Default relative CG residual of a steady solve.
  static constexpr double kSteadyTolerance = 1e-8;

  /// Solve steady state G·T = P; returns the temperature of every cell [°C].
  /// `hint` (if non-empty) warm-starts the CG iteration; `tolerance` is the
  /// relative residual ‖G·T − P‖₂/‖P‖₂ the CG iteration stops at.  CG is
  /// preconditioned by SSOR plus a column-aggregate coarse correction
  /// (util::ColumnCoarseSpace) built from the operator inside each solve;
  /// transient steps run SSOR alone.
  [[nodiscard]] std::vector<double> solve_steady(
      const std::vector<double>& hint = {},
      double tolerance = kSteadyTolerance) const;

  /// Iteration/residual statistics of the most recent steady or transient
  /// solve (feeds the solver benchmarks).
  [[nodiscard]] const util::CgResult& last_solve_stats() const noexcept {
    return last_stats_;
  }

  /// Default relative CG residual of a committed transient step.
  static constexpr double kStepTolerance = 1e-9;

  /// Solve one backward-Euler step of length `dt_s` from state `t` into
  /// `x`.  CG starts from `x`'s incoming value (the caller's guess) and
  /// stops at the relative residual `tolerance`.  `x` may alias `t`; both
  /// must have cell_count() entries.
  void step_transient(const std::vector<double>& t, std::vector<double>& x,
                      double dt_s, double tolerance = kStepTolerance) const;

  /// Advance one backward-Euler step of length `dt_s` from state `t`
  /// (modified in place, and its own starting guess).
  void step_transient(std::vector<double>& t, double dt_s) const;

  /// Commit the step-doubling partner of a full step: advance `t` by two
  /// half steps of `dt_s / 2` under the current boundary and return the
  /// max-norm difference to `full` [°C], the caller's single step of
  /// `dt_s` from the same `t` under the same boundary.  That is the local
  /// error estimate an adaptive step chooser controls on (backward Euler
  /// is first order, so the estimate scales as dt²).  Costs two linear
  /// solves per call; the full step is never committed, so the caller may
  /// solve it loosely.  Callers wanting rejection semantics copy `t`
  /// before calling; `full` must not alias `t`.
  [[nodiscard]] double step_transient_embedded(
      std::vector<double>& t, const std::vector<double>& full,
      double dt_s) const;

  /// Max-norm of the field's second time derivative under the current
  /// boundary and sources [°C/s²]: ‖T''‖∞ = ‖C⁻¹G·f‖∞, where
  /// f = T' = C⁻¹(P + b − G·T).  Two SpMVs on the assembled operator, no
  /// solve.  Backward Euler's step-doubling estimate is about
  /// dt²/4 · ‖T''‖, so this sizes an adaptive run's first step (the
  /// starting-step rule of Hairer, Nørsett & Wanner, *Solving ODEs I*,
  /// §II.4).  `t` must have cell_count() entries.
  [[nodiscard]] double second_derivative_norm(
      const std::vector<double>& t) const;

  /// Extract one layer of a solution as a 2D field [°C].
  [[nodiscard]] util::Grid2D<double> layer_field(const std::vector<double>& t,
                                                 std::size_t layer) const;

  /// Total heat flowing out through the top boundary for a solution [W]
  /// (energy-conservation checks).
  [[nodiscard]] double top_heat_flow_w(const std::vector<double>& t) const;

  /// Total heat flowing out through the bottom (board) boundary for a
  /// solution [W]; with top_heat_flow_w it closes the energy balance.
  [[nodiscard]] double bottom_heat_flow_w(const std::vector<double>& t) const;

  /// Per-cell heat flow out through the top boundary [W per cell]; feeds the
  /// thermosyphon channel model in the coupled fixed-point iteration.
  [[nodiscard]] util::Grid2D<double> top_heat_flow_map_w(
      const std::vector<double>& t) const;

 private:
  // Lazy assembly, in two parts with separate staleness flags.  The
  // conductance bands, their diagonal contributions and the bottom boundary
  // depend on geometry and the bottom boundary only: assembled once, again
  // only after set_bottom_boundary.  The top layer's diagonal and
  // boundary_rhs_ entries depend on the top boundary, which a coupled or
  // transient solve re-sets every iteration: only they are rewritten then.
  void assemble() const;
  void assemble_conductances() const;
  void assemble_top_boundary() const;
  /// Add the die-layer heat sources to a right-hand side.
  void add_power(std::vector<double>& rhs) const;
  /// Heat capacity of every cell [J/K], built on first use (geometry only).
  const std::vector<double>& heat_capacity() const;

  StackModel stack_;
  util::Grid2D<double> power_w_;
  TopBoundary top_;
  double bottom_htc_w_m2k_ = 10.0;
  double bottom_ambient_c_ = 40.0;

  // Lazily assembled operator; mutable because assembly is a cache. The
  // 7-point conductance operator is stored banded (StencilOperator), not
  // CSR: matrix-free SpMV plus SSOR sweeps over the bands.  The two flags
  // share one word of padding: ThermalModel does not grow.
  mutable bool dirty_ = true;      // bands + bottom boundary stale
  mutable bool top_dirty_ = true;  // top diagonal + top boundary_rhs_ stale
  mutable util::StencilOperator operator_{1, 1, 1};
  mutable std::vector<double> boundary_rhs_;  // G_b·T_fluid terms
  mutable util::CgResult last_stats_;
  // Transient step operator (G + C/dt): bands copied from operator_ once
  // per band assembly, only the diagonal is re-shifted per step.  Beside
  // it, the step's diagonal shift C/dt, its right-hand side and its CG
  // scratch, kept across steps so a step allocates nothing.  All stay
  // empty until the first step: a model that only solves steady states
  // holds none of them.
  mutable util::StencilOperator step_operator_{1, 1, 1};
  mutable bool step_operator_valid_ = false;
  mutable std::vector<double> step_shift_;
  mutable std::vector<double> step_rhs_;
  mutable util::CgWorkspace step_cg_;
  mutable std::vector<double> capacity_j_k_;  // heat_capacity(); C
};

}  // namespace tpcool::thermal
