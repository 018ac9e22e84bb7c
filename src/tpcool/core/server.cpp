#include "tpcool/core/server.hpp"

#include <algorithm>
#include <cmath>
#include <string>
#include <utility>

#include "tpcool/thermal/step_control.hpp"
#include "tpcool/util/error.hpp"
#include "tpcool/util/telemetry.hpp"

namespace tpcool::core {

namespace {

/// Weak secondary heat path from the package bottom to the board [W/(m²·K)],
/// and the in-chassis air temperature it ends at [°C].
constexpr double kBoardHtcWm2K = 10.0;
constexpr double kBoardAmbientC = 40.0;

/// Initial evaporator heat-map guess: the total power spread uniformly over
/// the footprint cells. The fixed point replaces it within one iteration.
util::Grid2D<double> uniform_footprint_heat(const thermal::StackModel& stack,
                                            double total_w) {
  util::Grid2D<double> heat(stack.grid.nx, stack.grid.ny, 0.0);
  std::size_t cells = 0;
  for (std::size_t iy = 0; iy < stack.grid.ny; ++iy) {
    for (std::size_t ix = 0; ix < stack.grid.nx; ++ix) {
      const floorplan::Rect cell = stack.grid.cell_rect(ix, iy);
      if (stack.evaporator_region.contains(cell.center_x(), cell.center_y()))
        ++cells;
    }
  }
  TPCOOL_ENSURE(cells > 0, "evaporator footprint covers no cells");
  const double per_cell = total_w / static_cast<double>(cells);
  for (std::size_t iy = 0; iy < stack.grid.ny; ++iy) {
    for (std::size_t ix = 0; ix < stack.grid.nx; ++ix) {
      const floorplan::Rect cell = stack.grid.cell_rect(ix, iy);
      if (stack.evaporator_region.contains(cell.center_x(), cell.center_y()))
        heat(ix, iy) = per_cell;
    }
  }
  return heat;
}

/// Cap on the thermosyphon-coupling iterations per adaptive trial step
/// (the transient analogue of ServerModel::coupled_solve's fixed point).
/// A boundary lagged one whole step behind sustains a discrete limit cycle
/// on high-power segments — the boiling HTC's strong heat-flux feedback
/// re-excites the package's fast surface mode at every commit, which puts
/// a dt-independent floor under the step-doubling error estimate and
/// locks the controller at millisecond steps.  Converging the boundary
/// against the trial's end state breaks the cycle.  Each iteration solves
/// one full backward-Euler step under the current boundary, warm-started
/// from the previous iterate; iteration stops early once successive full
/// steps agree to a tenth of the step tolerance.  Only then are the two
/// committed half steps solved, under the boundary the last full step saw.
constexpr int kCouplingIterations = 8;

/// Relative CG residual of the trial's full steps, per °C of the step
/// tolerance.  A full step is never committed: it only feeds the next
/// boundary update and, at the end, the step-doubling estimate, so it need
/// not be solved to the committed half steps' ThermalModel::kStepTolerance
/// (the inexact-solve argument of Eisenstat & Walker 1996, SIAM J. Sci.
/// Comput. 17(1), as for kForcing below).  Its solver error
/// must stay well below both the boundary loop's exit (0.1 × tolerance_c)
/// and the estimate itself, so it scales with tolerance_c: at a fixed 1e-6,
/// a tolerance_c = 5e-4 run of the day below takes 96,847 steps instead of
/// 31,445.  Measured on perf/'s transient_day (three staggered daily
/// traces on the 2x2 fleet, 30 segments, default tolerance_c = 0.05)
/// against the same loop with every full step at 1e-9: the largest
/// per-segment move [°C] and the run's CG iterations are
///
///   full step  peak TCASE  peak die  end TCASE  CG iterations  steps
///   1e-9       —           —         —          107,161        1350
///   1e-8       2.8e-7      3.3e-7    2.8e-7      94,262        1350
///   1e-7       6.3e-6      1.0e-6    2.3e-6      81,123        1350
///   1e-6       6.7e-5      4.1e-5    3.9e-5      67,081        1350
///   1e-5       3.5e-3      4.6e-4    4.1e-4      53,179        1357
///   1e-4       9.6e-3      2.1e-3    4.1e-3      44,177        1953
///
/// 1e-6 (2e-5 × 0.05) is the loosest decade that keeps every peak within
/// 1e-3 °C.  At 1e-4 the solver error shows in the estimate, and the
/// controller takes 45% more steps.
constexpr double kTrialTolerance = 2e-5;

/// Under-relaxation factor for the evaporator heat-map update inside the
/// coupling loop.  At high heat flux the boiling HTC's feedback loop has
/// gain above one, so plain substitution oscillates between two boundary
/// states instead of converging; averaging successive heat maps halves
/// the effective gain and makes the iteration contract.
constexpr double kCouplingRelaxation = 0.5;

/// Safety factor on the first adaptive step, dt₀ = 0.9·√(4·tol/‖T''‖∞):
/// the step-doubling estimate is about dt²/4·‖T''‖, so this lands the first
/// trial's estimate just below the tolerance.  On perf/'s transient day,
/// 0.9 and 2 reject no first step (7,288 and 7,236 CG solves), and 4 and 8
/// reject 45 and 63 trials (7,490 and 7,639).  But at 2 a segment whose
/// power falls took its first probe after the die had cooled: on the
/// one-server daily trace, peak die was 0.32 °C off a tight-tolerance
/// reference, against 0.07 °C at 0.9 (measured before the start field
/// counted toward a segment's peaks).
constexpr double kFirstStepSafety = 0.9;

/// Without a target field, a step at the largest step length, with a
/// converged boundary, that moves no cell by more than this fraction of
/// tolerance_c has settled: power is constant within a segment, so the
/// segment ends on that field.
constexpr double kSettledFraction = 0.1;

/// Most trials (accepted plus rejected) a segment may take; past it,
/// `advance` throws mid-run.  A segment ends once it settles, so its trials
/// do not grow with phase length (a 1e12 s x264 phase takes 39 steps);
/// perf/'s transient day takes at most 59 per segment.
constexpr std::uint64_t kMaxSegmentSteps = 100'000;

double max_abs_diff(const std::vector<double>& a,
                    const std::vector<double>& b) {
  double max = 0.0;
  for (std::size_t i = 0; i < a.size(); ++i) {
    max = std::max(max, std::abs(a[i] - b[i]));
  }
  return max;
}

/// Forcing constant of the inexact inner solves (Eisenstat & Walker 1996,
/// SIAM J. Sci. Comput. 17(1), forcing term η_k = γ·‖F(x_k)‖ with γ =
/// kForcing).  Every outer iterate but the last only produces the heat map
/// the next thermosyphon solve reads, so its CG residual need only stay far
/// below how much that map still moves: iterate k is solved to
/// η_k = kForcing · min(1, ‖q_{k−1} − q_{k−2}‖₂ / ‖q_{k−1}‖₂), floored at
/// the final tolerance, with q_{−1} the uniform guess and η_0 = kForcing.
/// The map moves about 45%, 30%, 28%, 17% over the default four iterates
/// (x264, canneal, blackscholes and streamcluster on four cores, 0.75 and
/// 2 mm), so 1e-3 leaves three orders of magnitude between the inner residual and
/// the outer step.  Measured on the same probes against all-tight inner
/// solves, it moves TCASE and die max by ≤ 6e-4 °C at four iterations,
/// where the truncation error is 0.45–0.65 °C, and by ≤ 6e-8 °C at 2 mm
/// after 40.  It is the loosest decade that keeps the path: at 2 mm, 1e-2
/// already moves the four-iteration answer by 3e-2 °C, and 3e-2 moves even
/// the 40-iteration one by 3e-3 °C (the fixed point is not smooth, and
/// early fields that loose steer it elsewhere).
constexpr double kForcing = 1e-3;

/// ‖a − b‖₂ / ‖a‖₂ over two same-shape grids (0 for an all-zero `a`).
double relative_change(const util::Grid2D<double>& a,
                       const util::Grid2D<double>& b) {
  double diff = 0.0;
  double norm = 0.0;
  for (std::size_t i = 0; i < a.data().size(); ++i) {
    const double d = a.data()[i] - b.data()[i];
    diff += d * d;
    norm += a.data()[i] * a.data()[i];
  }
  return norm > 0.0 ? std::sqrt(diff / norm) : 0.0;
}

}  // namespace

ServerModel::ServerModel(ServerConfig config)
    : config_(std::move(config)),
      floorplan_(floorplan::make_xeon_e5_floorplan(config_.stack.geometry)),
      power_model_(floorplan_),
      profiler_(power_model_),
      thermal_(thermal::make_package_stack(config_.stack)),
      syphon_(config_.design, thermal_.stack().grid,
              thermal_.stack().evaporator_region) {
  TPCOOL_REQUIRE(config_.coupling_iterations >= 1,
                 "need at least one coupling iteration");
  thermal_.set_bottom_boundary(kBoardHtcWm2K, kBoardAmbientC);
}

void ServerModel::set_operating_point(const thermosyphon::OperatingPoint& op) {
  TPCOOL_REQUIRE(op.water_flow_kg_h > 0.0, "water flow must be positive");
  config_.operating_point = op;
}

power::PackagePowerRequest ServerModel::request(
    const workload::BenchmarkProfile& bench,
    const workload::Configuration& config_pt,
    const std::vector<int>& active_cores, power::CState idle_state) const {
  TPCOOL_REQUIRE(static_cast<int>(active_cores.size()) == config_pt.cores,
                 "mapping size does not match the configuration core count");
  power::PackagePowerRequest req =
      profiler_.request_for(bench, config_pt, idle_state);
  req.active_cores = active_cores;
  return req;
}

void ServerModel::set_power(const floorplan::UnitPowers& powers) {
  power_w_ = floorplan::total_power(powers);
  const thermal::StackModel& stack = thermal_.stack();
  thermal_.set_power_map(floorplan::rasterize_power(
      floorplan_, powers, stack.grid, stack.die_offset_x,
      stack.die_offset_y));
}

SimulationResult ServerModel::simulate(
    const workload::BenchmarkProfile& bench,
    const workload::Configuration& config_pt,
    const std::vector<int>& active_cores, power::CState idle_state) {
  const power::PackagePowerRequest req =
      request(bench, config_pt, active_cores, idle_state);
  SimulationResult result = coupled_solve(power_model_.unit_powers(req));
  result.power = power_model_.breakdown(req);
  result.active_cores = active_cores;
  return result;
}

SimulationResult ServerModel::simulate_powers(
    const floorplan::UnitPowers& powers) {
  return coupled_solve(powers);
}

power::PackagePowerBreakdown ServerModel::load(
    const workload::BenchmarkProfile& bench,
    const workload::Configuration& config_pt,
    const std::vector<int>& active_cores, power::CState idle_state) {
  const power::PackagePowerRequest req =
      request(bench, config_pt, active_cores, idle_state);
  set_power(power_model_.unit_powers(req));
  return power_model_.breakdown(req);
}

thermosyphon::ThermosyphonState ServerModel::set_evaporator_heat(
    const util::Grid2D<double>& heat) {
  thermosyphon::ThermosyphonState state =
      syphon_.solve(heat, config_.operating_point);
  thermal_.set_top_boundary({state.htc_map, state.fluid_temp_map});
  return state;
}

util::Grid2D<double> ServerModel::evaporator_heat(
    const std::vector<double>& t) const {
  util::Grid2D<double> heat = thermal_.top_heat_flow_map_w(t);
  for (double& q : heat.data()) {
    if (q < 0.0) q = 0.0;
  }
  return heat;
}

PackageProbe ServerModel::probe(const std::vector<double>& t) const {
  const thermal::StackModel& stack = thermal_.stack();
  const floorplan::Rect package_region{0.0, 0.0, stack.grid.width(),
                                       stack.grid.height()};
  return {
      .tcase_c = thermal::case_temperature(
          thermal_.layer_field(t, stack.ihs_layer), stack.grid,
          package_region),
      .die_max_c = thermal::compute_metrics(
                       thermal_.layer_field(t, stack.die_layer), stack.grid,
                       stack.die_region)
                       .max_c};
}

AdvanceResult ServerModel::advance(std::vector<double>& t, double duration_s,
                                   double tolerance_c,
                                   const std::vector<double>* target) {
  TPCOOL_REQUIRE(t.size() == thermal_.cell_count(),
                 "segment initial field does not match the thermal grid");
  TPCOOL_REQUIRE(duration_s > 0.0, "segment duration must be positive");
  TPCOOL_REQUIRE(target == nullptr || target->size() == t.size(),
                 "segment target field does not match the thermal grid");
  // A pooled server outlives its segment: the step scratch goes with the
  // segment, so memory follows concurrent segments, not parked servers.
  struct ReleaseStepScratch {
    thermal::ThermalModel& model;
    ~ReleaseStepScratch() { model.release_step_scratch(); }
  } release{thermal_};

  // Seed the thermosyphon coupling from the initial field itself: a
  // zero-heat syphon solve gives a boundary, whose heat extraction over
  // the field is the first evaporator map — derived, not carried in, so
  // the segment stays a pure function of its inputs.
  const thermal::StackModel& stack = thermal_.stack();
  util::Grid2D<double> evap_heat(stack.grid.nx, stack.grid.ny, 0.0);
  set_evaporator_heat(evap_heat);
  evap_heat = evaporator_heat(t);
  set_evaporator_heat(evap_heat);

  // The first step comes from the segment's own dynamics: the field's
  // curvature under the boundary it starts from.
  const double curvature = thermal_.second_derivative_norm(t);
  const double first_step_s =
      curvature > 0.0
          ? kFirstStepSafety * std::sqrt(4.0 * tolerance_c / curvature)
          : thermal::kMaxStepS;

  // Peaks are over [0, D]: the field at the phase switch is the first
  // probe, so where the first step lands cannot hide a falling-power
  // segment's hottest moment.
  const PackageProbe start = probe(t);
  const PackageProbe goal =
      target != nullptr ? probe(*target) : PackageProbe{};
  AdvanceResult result;
  result.peak_tcase_c = start.tcase_c;
  result.peak_die_c = start.die_max_c;
  double sim_time_s = 0.0;  // accepted-dt sum
  bool settled = false;
  result.settled_s = duration_s;
  thermal::StepController controller(tolerance_c, first_step_s);
  const double trial_tolerance =
      std::max(thermal::ThermalModel::kStepTolerance,
               kTrialTolerance * tolerance_c);
  // A trial's fields and boundary heat, reused by every trial.
  std::vector<double> full;
  std::vector<double> prev_full;
  std::vector<double> half;
  util::Grid2D<double> trial_heat;

  while (sim_time_s < duration_s) {
    const double remaining_s = duration_s - sim_time_s;
    double dt_s = 0.0;
    bool converged = false;
    // Shrink the proposal until the embedded estimate passes.  Each trial
    // converges the boundary against its own full step (see
    // kCouplingIterations) so the estimate measures the segment's real
    // dynamics, not boundary-lag noise.
    while (true) {
      TPCOOL_REQUIRE(result.steps + result.rejected_steps < kMaxSegmentSteps,
                     "transient segment took " +
                         std::to_string(kMaxSegmentSteps) +
                         " trials and reached " + std::to_string(sim_time_s) +
                         " of " + std::to_string(duration_s) + " s");
      dt_s = controller.propose(remaining_s);
      full = t;
      trial_heat = evap_heat;
      converged = false;
      for (int k = 0; k < kCouplingIterations && !converged; ++k) {
        set_evaporator_heat(trial_heat);
        prev_full = full;
        thermal_.step_transient(t, full, dt_s, trial_tolerance);
        const util::Grid2D<double> next_heat = evaporator_heat(full);
        for (std::size_t i = 0; i < trial_heat.data().size(); ++i) {
          trial_heat.data()[i] += kCouplingRelaxation *
                                  (next_heat.data()[i] - trial_heat.data()[i]);
        }
        converged =
            k > 0 && max_abs_diff(full, prev_full) <= 0.1 * tolerance_c;
        ++result.boundary_iterations;
      }
      if (!converged) ++result.boundary_cap_hits;
      // The boundary is still the one the last full step saw.
      half = t;
      const double error_c = thermal_.step_transient_embedded(half, full, dt_s);
      if (controller.evaluate(dt_s, error_c)) {
        settled = target == nullptr && dt_s == thermal::kMaxStepS &&
                  converged &&
                  max_abs_diff(half, t) <= kSettledFraction * tolerance_c;
        std::swap(t, half);
        std::swap(evap_heat, trial_heat);
        break;
      }
      ++result.rejected_steps;
    }
    // Landing on the boundary is exact by assignment, not accumulation.
    sim_time_s = dt_s == remaining_s ? duration_s : sim_time_s + dt_s;
    PackageProbe step_probe = probe(t);
    if (target != nullptr && converged &&
        std::abs(step_probe.tcase_c - goal.tcase_c) <= tolerance_c &&
        std::abs(step_probe.die_max_c - goal.die_max_c) <= tolerance_c) {
      // Within tolerance of where the phase is heading: the segment ends on
      // the target, which stands in for this step's field.
      settled = true;
      t = *target;
      step_probe = goal;
    }
    if (settled) {
      // The segment ends on the field it settled on; its probe below is the
      // last, so the peaks and end TCASE are the ones already taken.
      result.settled_s = sim_time_s;
      result.settled = true;
      sim_time_s = duration_s;
    }
    ++result.steps;

    result.peak_tcase_c = std::max(result.peak_tcase_c, step_probe.tcase_c);
    result.peak_die_c = std::max(result.peak_die_c, step_probe.die_max_c);
    result.end_tcase_c = step_probe.tcase_c;
  }
  TPCOOL_ENSURE(sim_time_s == duration_s,
                "transient segment must land exactly on its boundary");
  return result;
}

SteadyField ServerModel::steady_field(int max_iterations, double stop_c) {
  TPCOOL_REQUIRE(max_iterations >= 1, "need at least one coupling iteration");
  TPCOOL_REQUIRE(stop_c > 0.0, "steady-field stop must be positive");
  return boundary_loop({}, max_iterations, stop_c).field;
}

ServerModel::BoundaryLoop ServerModel::boundary_loop(std::vector<double> hint,
                                                     int max_iterations,
                                                     double stop_c) {
  BoundaryLoop loop;
  std::vector<double>& t = loop.field.t;
  t = std::move(hint);
  util::Grid2D<double> evap_heat =
      uniform_footprint_heat(thermal_.stack(), power_w_);
  std::vector<double> previous;

  // Inexact inner solves (see kForcing): only the last iterate's field is
  // returned, so only it is solved to the full steady tolerance.
  constexpr double kFinalTolerance = thermal::ThermalModel::kSteadyTolerance;
  for (int it = 0; it < max_iterations && !loop.field.converged; ++it) {
    loop.syphon = set_evaporator_heat(evap_heat);
    const bool last = it + 1 == max_iterations;
    const double tolerance =
        last ? kFinalTolerance
             : std::max(kFinalTolerance,
                        kForcing * std::min(1.0, loop.coupling_residual));
    if (stop_c >= 0.0) previous = t;
    t = thermal_.solve_steady(t, tolerance);
    loop.cg_iterations += thermal_.last_solve_stats().iterations;
    ++loop.field.iterations;
    if (stop_c >= 0.0 && it > 0) {
      loop.field.final_change_c = max_abs_diff(t, previous);
      loop.field.converged = loop.field.final_change_c <= stop_c;
    }

    // Feed back the actual per-cell evaporator heat.
    util::Grid2D<double> heat = evaporator_heat(t);
    loop.coupling_residual = relative_change(heat, evap_heat);
    evap_heat = std::move(heat);
  }
  return loop;
}

SimulationResult ServerModel::coupled_solve(
    const floorplan::UnitPowers& powers) {
  // The unit of work everything above caches and parallelizes: one "solve"
  // span per cold coupled solve (cache hits never reach here), so the span
  // count must equal the solve.executed counter and the cache-miss sum.
  util::TraceSpan span("solve");
  if (util::telemetry_enabled()) {
    static util::TelemetryCounter& executed =
        util::Telemetry::instance().counter("solve.executed");
    executed.add(1.0);
  }
  const thermal::StackModel& stack = thermal_.stack();

  set_power(powers);
  const double total_w = power_w_;

  // Warm start: within one solve the field is reused across fixed-point
  // iterations; across solves it is seeded from the previous call's result
  // (sweeps over benchmarks/configurations change the field only mildly).
  // A fixed count of iterations, with no early stop.
  const bool warm = config_.reuse_thermal_state;
  BoundaryLoop loop =
      boundary_loop(warm ? last_temperature_ : std::vector<double>{},
                    config_.coupling_iterations, -1.0);
  const std::vector<double>& t = loop.field.t;

  if (warm) last_temperature_ = t;

  span.arg("coupling_iterations",
           static_cast<double>(config_.coupling_iterations));
  span.arg("power_w", total_w);
  span.arg("warm", warm ? 1.0 : 0.0);
  span.arg("cg_iterations", static_cast<double>(loop.cg_iterations));
  span.arg("coupling_residual", loop.coupling_residual);
  if (util::telemetry_enabled() && total_w > 0.0) {
    // Energy balance of the returned field: every watt of source power
    // must leave through the top (evaporator) or bottom (board) boundary.
    const double imbalance =
        std::abs(total_w - thermal_.top_heat_flow_w(t) -
                 thermal_.bottom_heat_flow_w(t)) /
        total_w;
    span.arg("energy_imbalance", imbalance);
    static util::TelemetryHistogram& imbalance_histogram =
        util::Telemetry::instance().histogram("solve.energy_imbalance");
    imbalance_histogram.record(imbalance);
  }

  SimulationResult result;
  result.syphon = std::move(loop.syphon);
  result.total_power_w = total_w;
  result.die_field_c = thermal_.layer_field(t, stack.die_layer);
  result.package_field_c = thermal_.layer_field(t, stack.ihs_layer);
  result.die = thermal::compute_metrics(result.die_field_c, stack.grid,
                                        stack.die_region);
  const floorplan::Rect package_region{0.0, 0.0, stack.grid.width(),
                                       stack.grid.height()};
  result.package = thermal::compute_metrics(result.package_field_c,
                                            stack.grid, package_region);
  result.tcase_c = thermal::case_temperature(result.package_field_c,
                                             stack.grid, package_region);
  return result;
}

thermosyphon::EvaporatorGeometry default_evaporator_geometry(
    thermosyphon::Orientation orientation) {
  const thermal::PackageStackConfig stack{};
  thermosyphon::EvaporatorGeometry evaporator;
  evaporator.footprint_width_m = stack.evaporator_width_m;
  evaporator.footprint_height_m = stack.evaporator_height_m;
  evaporator.orientation = orientation;
  return evaporator;
}

}  // namespace tpcool::core
