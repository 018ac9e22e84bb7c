#pragma once
/// \file rack_coordinator.hpp
/// \brief Rack-level coordination (§V): one chiller per rack forces a shared
///        water temperature; the coordinator schedules one application per
///        server, derives each server's highest feasible supply temperature,
///        and sets the rack setpoint to the minimum of those.

#include <memory>
#include <string>
#include <vector>

#include "tpcool/cooling/rack.hpp"
#include "tpcool/core/pipelines.hpp"

namespace tpcool::core {

/// Per-server outcome of the rack plan.
struct ServerPlan {
  std::string benchmark;
  ScheduleDecision decision;
  double package_power_w = 0.0;
  double max_supply_temp_c = 0.0;  ///< Highest water temp with TCASE ≤ limit.
  double die_max_c = 0.0;          ///< At the shared setpoint.
};

/// Full rack plan.
struct RackPlan {
  std::vector<ServerPlan> servers;
  cooling::RackCoolingState cooling;
};

/// Coordinates a homogeneous rack of servers running one approach.
class RackCoordinator {
 public:
  struct Config {
    Approach approach = Approach::kProposed;
    workload::QoSRequirement qos{2.0};
    double cell_size_m = 1.5e-3;  ///< Coarser default: rack = many solves.
    double tcase_limit_c = 85.0;
    /// Candidate supply temperatures scanned per server, descending.
    std::vector<double> supply_candidates_c{40.0, 35.0, 30.0, 25.0, 20.0,
                                            15.0};
    cooling::ChillerModel chiller;
  };

  explicit RackCoordinator(Config config);

  /// Schedule each named benchmark on its own server and solve the shared
  /// cooling loop.  Decisions are made serially on one pipeline; the
  /// per-server supply-temperature scans then fan out over the global
  /// thread pool through `cached_solve` and the shared solve cache, so
  /// results are bit-identical for any thread count (see parallel.hpp).
  [[nodiscard]] RackPlan plan(const std::vector<std::string>& benchmarks);

 private:
  Config config_;
};

}  // namespace tpcool::core
