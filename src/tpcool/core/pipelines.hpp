#pragma once
/// \file pipelines.hpp
/// \brief The three evaluated approaches (Table II) and the server each one
///        runs on.  A `Scheduler` (scheduler.hpp) makes an approach's
///        decisions; a `ServerModel` built from `server_config_for` solves
///        them.

#include "tpcool/core/server.hpp"

namespace tpcool::core {

/// The approaches compared in §VIII.
enum class Approach {
  kProposed,       ///< This paper: E-W design + Algorithm 1 + proposed map.
  kSoaBalancing,   ///< [8] design + [27] selection + [9] balancing map.
  kSoaInletFirst,  ///< [8] design + [27] selection + [7] inlet-first map.
};

[[nodiscard]] const char* to_string(Approach approach);

/// Server config of an approach (design + operating point) on a thermal
/// grid of pitch `cell_size_m`.  These servers start every solve cold
/// (`reuse_thermal_state = false`).
[[nodiscard]] ServerConfig server_config_for(
    Approach approach,
    double cell_size_m = thermal::PackageStackConfig{}.cell_size_m);

}  // namespace tpcool::core
