// Tests for the exhaustive oracle mapping policy, including the key
// verification result: the proposed heuristic lands within a small margin
// of the thermally optimal placement.

#include <gtest/gtest.h>

#include <set>

#include "tpcool/core/parallel.hpp"
#include "tpcool/core/pipelines.hpp"
#include "tpcool/core/solve_cache.hpp"
#include "tpcool/mapping/exhaustive.hpp"
#include "tpcool/mapping/proposed.hpp"
#include "tpcool/util/error.hpp"

namespace tpcool::mapping {
namespace {

class OracleTest : public ::testing::Test {
 protected:
  floorplan::Floorplan fp_ = floorplan::make_xeon_e5_floorplan();
};

TEST_F(OracleTest, SubsetEnumerationCounts) {
  EXPECT_EQ(core_subsets(fp_, 1).size(), 8u);
  EXPECT_EQ(core_subsets(fp_, 2).size(), 28u);
  EXPECT_EQ(core_subsets(fp_, 4).size(), 70u);
  EXPECT_EQ(core_subsets(fp_, 8).size(), 1u);
  EXPECT_THROW(core_subsets(fp_, 0), util::PreconditionError);
  EXPECT_THROW(core_subsets(fp_, 9), util::PreconditionError);
}

TEST_F(OracleTest, SubsetsAreDistinctAndValid) {
  const auto subsets = core_subsets(fp_, 3);
  std::set<std::vector<int>> unique(subsets.begin(), subsets.end());
  EXPECT_EQ(unique.size(), subsets.size());
  for (const auto& subset : subsets) {
    EXPECT_EQ(subset.size(), 3u);
    for (const int id : subset) {
      EXPECT_GE(id, 1);
      EXPECT_LE(id, 8);
    }
  }
}

TEST_F(OracleTest, PicksTheCheapestSubset) {
  // Synthetic cost: prefer low core-id sums; the oracle must find {1,2}.
  ExhaustivePolicy oracle([](const std::vector<std::vector<int>>& subsets) {
    std::vector<double> costs;
    for (const auto& cores : subsets) {
      double cost = 0.0;
      for (const int id : cores) cost += id;
      costs.push_back(cost);
    }
    return costs;
  });
  MappingContext context;
  context.floorplan = &fp_;
  context.cores_needed = 2;
  const std::vector<int> best = oracle.select_cores(context);
  EXPECT_EQ(std::set<int>(best.begin(), best.end()), std::set<int>({1, 2}));
  EXPECT_DOUBLE_EQ(oracle.best_cost(), 3.0);
  EXPECT_EQ(oracle.evaluations(), 28u);
}

TEST_F(OracleTest, NullEvaluatorRejected) {
  EXPECT_THROW(ExhaustivePolicy(BatchPlacementEvaluator{}),
               util::PreconditionError);
}

TEST_F(OracleTest, ProposedHeuristicNearThermalOptimum) {
  // The headline verification: at 4 active cores with deep idle states, the
  // proposed one-core-per-channel-row heuristic is within 1.5 °C of the
  // exhaustive optimum found by 70 coupled simulations. The 70 subsets fan
  // out over the thread pool through the shared solve cache
  // (core::evaluate_placements_parallel).
  constexpr double kCell = 2.0e-3;
  const core::ServerModel server(
      core::server_config_for(core::Approach::kProposed, kCell));
  const auto& bench = workload::find_benchmark("x264");
  const workload::Configuration config{4, 2, 3.2};

  ExhaustivePolicy oracle([&](const std::vector<std::vector<int>>& subsets) {
    return core::evaluate_placements_parallel(
        core::Approach::kProposed, kCell, bench, config, power::CState::kC1E,
        subsets);
  });

  MappingContext context;
  context.floorplan = &server.floorplan();
  context.orientation = server.design().evaporator.orientation;
  context.idle_state = power::CState::kC1E;
  context.cores_needed = 4;

  const std::vector<int> best = oracle.select_cores(context);
  const double optimal = oracle.best_cost();
  EXPECT_EQ(oracle.evaluations(), 70u);

  // The heuristic's placement is one of the 70 enumerated subsets, so this
  // re-simulation is a solve-cache hit.
  const std::vector<int> heuristic =
      ProposedPolicy().select_cores(context);
  const double heuristic_cost =
      core::cached_solve(*core::SolveCache::global(),
                         core::Approach::kProposed, kCell,
                         server.operating_point(), bench, config, heuristic,
                         power::CState::kC1E)
          ->die.max_c;

  EXPECT_GE(heuristic_cost, optimal - 1e-9);    // oracle is a lower bound
  EXPECT_LE(heuristic_cost, optimal + 1.5);     // ...and we are close to it
  EXPECT_EQ(best.size(), 4u);
}

}  // namespace
}  // namespace tpcool::mapping
