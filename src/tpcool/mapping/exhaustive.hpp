#pragma once
/// \file exhaustive.hpp
/// \brief Oracle mapping: exhaustively evaluate every core subset of the
///        requested size through a caller-provided thermal evaluator and
///        return the coolest one. Exponential in core count (C(8,4) = 70),
///        so this is an ablation/verification tool, not a runtime policy —
///        it bounds how far the proposed heuristic is from optimal.

#include <functional>

#include "tpcool/mapping/policy.hpp"

namespace tpcool::mapping {

/// Thermal costs of all candidate placements at once (lower is better),
/// index-aligned with the input — typically the die θmax of each from a
/// coupled server simulation. Taking the whole sweep lets the caller fan
/// the independent simulations out over a thread pool
/// (core::evaluate_placements_parallel).
using BatchPlacementEvaluator = std::function<std::vector<double>(
    const std::vector<std::vector<int>>& subsets)>;

/// Exhaustive-search oracle. Stateless per call; the evaluator is invoked
/// once per sweep. Ties break toward the lexicographically first subset.
class ExhaustivePolicy final : public MappingPolicy {
 public:
  explicit ExhaustivePolicy(BatchPlacementEvaluator evaluator);

  [[nodiscard]] std::string name() const override { return "oracle"; }
  [[nodiscard]] std::vector<int> select_cores(
      const MappingContext& context) const override;

  /// Cost of the best placement found by the last select_cores() call.
  [[nodiscard]] double best_cost() const noexcept { return best_cost_; }

  /// Number of subsets evaluated by the last call.
  [[nodiscard]] std::size_t evaluations() const noexcept {
    return evaluations_;
  }

 private:
  BatchPlacementEvaluator evaluator_;
  mutable double best_cost_ = 0.0;
  mutable std::size_t evaluations_ = 0;
};

/// Enumerate all size-k subsets of the core ids (sorted ids, lexicographic).
[[nodiscard]] std::vector<std::vector<int>> core_subsets(
    const floorplan::Floorplan& floorplan, int k);

}  // namespace tpcool::mapping
