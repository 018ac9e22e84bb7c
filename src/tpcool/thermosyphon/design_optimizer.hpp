#pragma once
/// \file design_optimizer.hpp
/// \brief Workload- and platform-aware thermosyphon design optimization
///        (paper §VI): orientation, refrigerant, filling ratio, and the
///        water operating point, all driven by the worst-case workload.
///
/// The optimizer is substrate-agnostic: it enumerates candidates and asks a
/// caller-provided evaluator (typically `core::ServerModel` running the
/// worst-case workload through the coupled thermal/thermosyphon solve) for
/// the resulting TCASE / hot-spot / gradient figures.

#include <functional>
#include <vector>

#include "tpcool/thermosyphon/thermosyphon.hpp"

namespace tpcool::thermosyphon {

/// Thermal outcome of evaluating one (design, operating-point) pair under
/// the worst-case workload.
struct DesignEvaluation {
  double tcase_c = 0.0;         ///< Centre-of-spreader case temperature.
  double die_max_c = 0.0;       ///< Die hot spot θmax.
  double die_grad_c_per_mm = 0.0;
  bool dryout = false;          ///< Any evaporator channel dried out.
  /// Loop saturation pressure at the converged operating state [Pa];
  /// 0 when the evaluator does not report it (pressure is unconstrained).
  double loop_pressure_pa = 0.0;
};

/// Evaluator callback provided by the system layer.
using DesignEvaluator = std::function<DesignEvaluation(
    const ThermosyphonDesign&, const OperatingPoint&)>;

/// Search-space and constraints.
struct DesignSearchSpace {
  std::vector<Orientation> orientations{Orientation::kEastWest,
                                        Orientation::kNorthSouth};
  std::vector<const materials::Refrigerant*> refrigerants{
      &materials::r236fa(), &materials::r134a(), &materials::r245fa()};
  std::vector<double> filling_ratios{0.35, 0.45, 0.55, 0.65, 0.75};
  /// Candidate water inlet temperatures [°C], preferred high-to-low (§VI-C:
  /// highest feasible temperature wins).
  std::vector<double> water_temps_c{40.0, 35.0, 30.0, 25.0, 20.0, 15.0};
  /// Candidate water flow rates [kg/h], preferred low-to-high.
  std::vector<double> water_flows_kg_h{4.0, 7.0, 10.0, 14.0, 20.0};
  double tcase_limit_c = 85.0;   ///< TCASE_MAX of the platform.
  /// Maximum allowed loop pressure [Pa]: the micro-scale shell is a
  /// low-pressure vessel, which rules out high-pressure fluids like R134a.
  double max_loop_pressure_pa = 1.0e6;
  ThermosyphonDesign base;       ///< Geometry/condenser/loop template.
};

/// One evaluated candidate (kept for the ablation benches).
struct DesignRecord {
  ThermosyphonDesign design;
  OperatingPoint op;
  DesignEvaluation eval;
  bool feasible = false;
};

/// Optimization result.
struct DesignResult {
  ThermosyphonDesign design;
  OperatingPoint op;
  DesignEvaluation eval;
  std::vector<DesignRecord> records;  ///< Every candidate evaluated.
};

/// Run the two-stage optimization of §VI:
///  1. at the reference operating point, pick the feasible
///     (orientation, refrigerant, filling ratio) with the lowest die hot
///     spot (ties: lower gradient);
///  2. for that design, pick the highest water temperature and then the
///     lowest flow rate that keep TCASE under the limit without dry-out.
/// Throws PreconditionError when no candidate is feasible.
///
/// Evaluations fan out over the global thread pool (util::parallel_map,
/// one task per candidate), so calls to `evaluate` run concurrently: it
/// must be reentrant (e.g. a stateless lambda building a fresh ServerModel
/// per call), and anything it captures is shared by every call.  Stage 1
/// evaluates all candidates concurrently and selects with a serial
/// first-wins scan in enumeration order; stage 2 evaluates one preference
/// row (all flow rates of a water temperature) at a time and scans it in
/// flow order, stopping at the first feasible row.  Selection scans run on
/// index-addressed results, so the outcome — including `records`, which
/// holds stage 1 plus every row up to and including the first feasible one
/// — is bit-identical for any thread count.
[[nodiscard]] DesignResult optimize_design(const DesignSearchSpace& space,
                                           const DesignEvaluator& evaluate);

}  // namespace tpcool::thermosyphon
