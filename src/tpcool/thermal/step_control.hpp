#pragma once
/// \file step_control.hpp
/// \brief Adaptive time-step control for the transient thermal path: an
///        error-estimate chooser (PI-free dead-beat controller on the
///        step-doubling estimate — the caller's full step against the two
///        half steps ThermalModel::step_transient_embedded commits, so a
///        trial costs its full steps plus two solves) composed with a
///        step-to-boundary chooser that clamps proposals so phase and
///        interval edges are hit exactly — never overshot, never left as
///        near-zero slivers.  Modeled on the StepChoosers of large
///        production integrators (SpECTRE `src/Time/StepChoosers/`):
///        every chooser limits the step, the minimum of the limits runs.
///
/// Everything here is plain double arithmetic on the caller's thread —
/// deterministic for any thread count, so adaptive transient runs keep
/// the bit-identical engine contract.

#include <cstddef>

namespace tpcool::thermal {

/// Hard ceiling on any proposal [s] (smooth plateaus otherwise grow dt
/// without bound and skate over the next load change).
inline constexpr double kMaxStepS = 900.0;

/// One adaptive stepping sequence: propose a dt, integrate, report the
/// error estimate back, repeat.  `propose` applies the step-to-boundary
/// rule; `evaluate` applies the error-estimate rule and decides
/// accept/reject.
///
/// Usage per step:
///   const double dt = controller.propose(remaining_s);
///   ...integrate a trial step of dt...
///   if (controller.evaluate(dt, error_c)) { commit } else { retry }
class StepController {
 public:
  /// `tolerance_c`: target local error per step [°C] (max-norm of the
  /// step-doubling estimate); smaller = more, shorter steps.  Must be > 0.
  /// `first_step_s`: the first proposal, clamped into [1 ms, kMaxStepS];
  /// must be > 0.  The transient engine sizes it from the segment's own
  /// dynamics (ThermalModel::second_derivative_norm).
  StepController(double tolerance_c, double first_step_s);

  /// The dt to attempt given `remaining_s` to the next boundary.  The
  /// current error-controlled proposal is clamped by the step-to-boundary
  /// rule: a proposal reaching the boundary returns exactly `remaining_s`
  /// (callers land by assignment, not accumulation), and a proposal past
  /// the halfway mark returns remaining_s / 2 so the boundary is never
  /// approached with a sliver step.  Requires remaining_s > 0.
  [[nodiscard]] double propose(double remaining_s) const;

  /// Feed back the error estimate of a trial step of `dt_s`.  Returns
  /// true when the step is accepted (error within tolerance, or dt at the
  /// floor); either way the next proposal is the dead-beat update
  ///   dt · clamp(0.9 · sqrt(tolerance / error), 0.1, 4)
  /// clamped into [1 ms, kMaxStepS].  sqrt: backward Euler is first
  /// order, so the step-doubling estimate scales as dt².
  [[nodiscard]] bool evaluate(double dt_s, double error_c);

 private:
  double tolerance_c_;
  double dt_s_;  ///< Error-controlled proposal, boundary-unclamped.
};

}  // namespace tpcool::thermal
