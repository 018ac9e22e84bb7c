#include "tpcool/thermosyphon/design_optimizer.hpp"

#include <cstddef>
#include <vector>

#include "tpcool/util/error.hpp"
#include "tpcool/util/parallel_map.hpp"

namespace tpcool::thermosyphon {

namespace {

bool feasible(const DesignSearchSpace& space, const DesignEvaluation& eval) {
  return eval.tcase_c <= space.tcase_limit_c && !eval.dryout &&
         eval.loop_pressure_pa <= space.max_loop_pressure_pa;
}

/// Evaluate every (design, op) pair concurrently; records land by index, so
/// the callers' selection scans see the enumeration order at any thread
/// count.
std::vector<DesignRecord> evaluate_all(
    const DesignSearchSpace& space, const DesignEvaluator& evaluate,
    const std::vector<std::pair<ThermosyphonDesign, OperatingPoint>>&
        candidates) {
  return util::parallel_map<DesignRecord>(
      candidates.size(), [&](std::size_t i) {
        DesignRecord record;
        record.design = candidates[i].first;
        record.op = candidates[i].second;
        record.eval = evaluate(record.design, record.op);
        record.feasible = feasible(space, record.eval);
        return record;
      });
}

}  // namespace

DesignResult optimize_design(const DesignSearchSpace& space,
                             const DesignEvaluator& evaluate) {
  TPCOOL_REQUIRE(static_cast<bool>(evaluate), "evaluator must be callable");
  TPCOOL_REQUIRE(!space.orientations.empty() && !space.refrigerants.empty() &&
                     !space.filling_ratios.empty(),
                 "empty design search space");
  TPCOOL_REQUIRE(!space.water_temps_c.empty() &&
                     !space.water_flows_kg_h.empty(),
                 "empty operating-point search space");

  DesignResult result;
  bool have_best = false;

  // Stage 1: design-time parameters at the reference operating point
  // (nominal flow, nominal temperature — the paper's 7 kg/h @ 30 °C).
  // All candidates are independent coupled solves: evaluate them in
  // parallel, then select serially in enumeration order (first-wins ties =
  // the serial semantics).
  const OperatingPoint reference{};
  std::vector<std::pair<ThermosyphonDesign, OperatingPoint>> stage1;
  for (const Orientation orientation : space.orientations) {
    for (const materials::Refrigerant* fluid : space.refrigerants) {
      for (const double fr : space.filling_ratios) {
        ThermosyphonDesign candidate = space.base;
        candidate.evaporator.orientation = orientation;
        candidate.refrigerant = fluid;
        candidate.filling_ratio = fr;
        stage1.emplace_back(std::move(candidate), reference);
      }
    }
  }
  result.records = evaluate_all(space, evaluate, stage1);
  for (const DesignRecord& record : result.records) {
    if (!record.feasible) continue;
    const bool better =
        !have_best ||
        record.eval.die_max_c < result.eval.die_max_c - 1e-9 ||
        (record.eval.die_max_c < result.eval.die_max_c + 1e-9 &&
         record.eval.die_grad_c_per_mm < result.eval.die_grad_c_per_mm);
    if (better) {
      result.design = record.design;
      result.op = reference;
      result.eval = record.eval;
      have_best = true;
    }
  }
  TPCOOL_REQUIRE(have_best, "no feasible thermosyphon design found");

  // Stage 2: §VI-C — the highest water temperature, then the lowest flow,
  // for which TCASE stays under the limit for the worst-case workload.
  // One preference row (all flows of one water temperature) evaluates in
  // parallel; the row is scanned in flow order and the search stops at the
  // first feasible row, so rows past it are never evaluated.
  bool op_found = false;
  for (const double t_w : space.water_temps_c) {  // preferred order
    std::vector<std::pair<ThermosyphonDesign, OperatingPoint>> row;
    for (const double flow : space.water_flows_kg_h) {  // low flow first
      row.emplace_back(result.design,
                       OperatingPoint{.water_flow_kg_h = flow,
                                      .water_inlet_c = t_w});
    }
    const std::vector<DesignRecord> evaluated =
        evaluate_all(space, evaluate, row);
    result.records.insert(result.records.end(), evaluated.begin(),
                          evaluated.end());
    for (const DesignRecord& record : evaluated) {
      if (record.feasible) {
        result.op = record.op;
        result.eval = record.eval;
        op_found = true;
        break;
      }
    }
    if (op_found) break;
  }
  TPCOOL_REQUIRE(op_found, "no feasible operating point found");
  return result;
}

}  // namespace tpcool::thermosyphon
