#include "tpcool/thermal/step_control.hpp"

#include <algorithm>
#include <cmath>

#include "tpcool/util/error.hpp"

namespace tpcool::thermal {

namespace {

/// Hard floor [s]: a step at or below this is accepted regardless of its
/// error estimate, guaranteeing progress through stiff transients.
constexpr double kMinStepS = 1.0e-3;
/// Largest per-step growth factor of the proposal (SpECTRE's ErrorControl
/// chooser limits growth the same way: one cheap step must not catapult dt
/// past the next transient).
constexpr double kMaxGrowth = 4.0;
/// Largest per-step shrink factor: a wildly over-tolerance step retries at
/// a tenth, not at the floor, so one noisy estimate cannot collapse the run
/// into floor-sized steps.
constexpr double kMaxShrink = 0.1;
/// Safety factor on the dead-beat update so the next step's error lands
/// below — not at — the tolerance.
constexpr double kSafety = 0.9;

}  // namespace

StepController::StepController(double tolerance_c, double first_step_s)
    : tolerance_c_(tolerance_c) {
  TPCOOL_REQUIRE(tolerance_c_ > 0.0, "step tolerance must be positive");
  TPCOOL_REQUIRE(first_step_s > 0.0, "first step must be positive");
  dt_s_ = std::clamp(first_step_s, kMinStepS, kMaxStepS);
}

double StepController::propose(double remaining_s) const {
  TPCOOL_REQUIRE(remaining_s > 0.0, "no time remaining to step over");
  const double dt = std::min(dt_s_, kMaxStepS);
  // Step-to-boundary: land exactly (the caller assigns, not accumulates)…
  if (dt >= remaining_s) return remaining_s;
  // …and never set up a sliver: past the halfway mark, split the remainder
  // evenly (0.5 · remaining is exact in floating point).
  if (dt > 0.5 * remaining_s) return 0.5 * remaining_s;
  return dt;
}

bool StepController::evaluate(double dt_s, double error_c) {
  TPCOOL_REQUIRE(dt_s > 0.0, "evaluated step must be positive");
  TPCOOL_REQUIRE(error_c >= 0.0, "error estimate must be non-negative");
  // Dead-beat update on the order-2 local estimate; a zero estimate (e.g.
  // an equilibrated field) grows at the cap.
  double factor = kMaxGrowth;
  if (error_c > 0.0) {
    factor = std::clamp(kSafety * std::sqrt(tolerance_c_ / error_c),
                        kMaxShrink, kMaxGrowth);
  }
  dt_s_ = std::clamp(dt_s * factor, kMinStepS, kMaxStepS);
  // Accept within tolerance — or at the floor, where rejecting could not
  // shrink further anyway (progress guarantee).
  return error_c <= tolerance_c_ || dt_s <= kMinStepS;
}

}  // namespace tpcool::thermal
