#pragma once
/// \file pipelines.hpp
/// \brief The three evaluated approaches (Table II) bundled as ready-made
///        pipelines: server design + configuration selection + mapping
///        policy + C-state management.

#include <memory>
#include <string>

#include "tpcool/core/scheduler.hpp"

namespace tpcool::core {

/// The approaches compared in §VIII.
enum class Approach {
  kProposed,       ///< This paper: E-W design + Algorithm 1 + proposed map.
  kSoaBalancing,   ///< [8] design + [27] selection + [9] balancing map.
  kSoaInletFirst,  ///< [8] design + [27] selection + [7] inlet-first map.
};

[[nodiscard]] const char* to_string(Approach approach);

/// A fully wired approach: owns the server, the policy, and the scheduler.
class ApproachPipeline {
 public:
  explicit ApproachPipeline(Approach approach);

  /// Same, but with an overridden thermal-grid cell size (coarser grids for
  /// fast tests, finer for figure-quality maps).
  ApproachPipeline(Approach approach, double cell_size_m);

  [[nodiscard]] Approach approach() const noexcept { return approach_; }
  [[nodiscard]] std::string name() const { return to_string(approach_); }
  [[nodiscard]] ServerModel& server() noexcept { return *server_; }
  [[nodiscard]] const ServerModel& server() const noexcept { return *server_; }
  [[nodiscard]] Scheduler& scheduler() noexcept { return *scheduler_; }

 private:
  Approach approach_;
  std::unique_ptr<ServerModel> server_;
  std::unique_ptr<mapping::MappingPolicy> policy_;
  std::unique_ptr<Scheduler> scheduler_;
};

/// Server config of an approach (design + operating point), with an
/// optional cell-size override.  Pipeline servers start every solve cold
/// (`reuse_thermal_state = false`).
[[nodiscard]] ServerConfig server_config_for(Approach approach,
                                             double cell_size_m);

}  // namespace tpcool::core
