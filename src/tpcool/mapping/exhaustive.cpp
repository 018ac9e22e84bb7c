#include "tpcool/mapping/exhaustive.hpp"

#include <utility>

#include "tpcool/util/error.hpp"

namespace tpcool::mapping {

ExhaustivePolicy::ExhaustivePolicy(BatchPlacementEvaluator evaluator)
    : evaluator_(std::move(evaluator)) {
  TPCOOL_REQUIRE(static_cast<bool>(evaluator_),
                 "oracle needs a placement evaluator");
}

std::vector<std::vector<int>> core_subsets(
    const floorplan::Floorplan& floorplan, int k) {
  const int n = static_cast<int>(floorplan.core_count());
  TPCOOL_REQUIRE(k >= 1 && k <= n, "subset size out of range");
  std::vector<std::vector<int>> subsets;
  std::vector<int> indices(static_cast<std::size_t>(k));
  // Standard lexicographic k-combination enumeration.
  for (int i = 0; i < k; ++i) indices[static_cast<std::size_t>(i)] = i;
  while (true) {
    std::vector<int> subset;
    subset.reserve(static_cast<std::size_t>(k));
    for (const int idx : indices) {
      subset.push_back(floorplan.cores()[static_cast<std::size_t>(idx)].core_id);
    }
    subsets.push_back(std::move(subset));
    int pos = k - 1;
    while (pos >= 0 &&
           indices[static_cast<std::size_t>(pos)] == n - k + pos) {
      --pos;
    }
    if (pos < 0) break;
    ++indices[static_cast<std::size_t>(pos)];
    for (int j = pos + 1; j < k; ++j) {
      indices[static_cast<std::size_t>(j)] =
          indices[static_cast<std::size_t>(j - 1)] + 1;
    }
  }
  return subsets;
}

std::vector<int> ExhaustivePolicy::select_cores(
    const MappingContext& context) const {
  checked_sites(context);
  const auto subsets = core_subsets(*context.floorplan, context.cores_needed);
  TPCOOL_ENSURE(!subsets.empty(), "no subsets enumerated");

  const std::vector<double> costs = evaluator_(subsets);
  TPCOOL_ENSURE(costs.size() == subsets.size(),
                "evaluator returned the wrong number of costs");
  evaluations_ = costs.size();
  // Argmin with first-wins ties.
  std::size_t best_index = 0;
  for (std::size_t i = 1; i < costs.size(); ++i) {
    if (costs[i] < costs[best_index]) best_index = i;
  }
  best_cost_ = costs[best_index];
  return subsets[best_index];
}

}  // namespace tpcool::mapping
