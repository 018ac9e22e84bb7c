#include "tpcool/core/pipelines.hpp"

#include "tpcool/util/error.hpp"

namespace tpcool::core {

const char* to_string(Approach approach) {
  switch (approach) {
    case Approach::kProposed: return "Proposed";
    case Approach::kSoaBalancing: return "[8]+[27]+[9]";
    case Approach::kSoaInletFirst: return "[8]+[27]+[7]";
  }
  return "?";
}

ServerConfig server_config_for(Approach approach, double cell_size_m) {
  TPCOOL_REQUIRE(cell_size_m > 0.0, "cell size must be positive");
  ServerConfig config;
  config.stack.cell_size_m = cell_size_m;
  const bool proposed = approach == Approach::kProposed;
  config.design.evaporator = default_evaporator_geometry(
      proposed ? thermosyphon::Orientation::kEastWest
               : thermosyphon::Orientation::kNorthSouth);
  config.design.refrigerant = &materials::r236fa();
  // §VI-B: the workload-aware design charges at 55 %; the uniform-flux
  // design of [8] used the generic 50 % charge.
  config.design.filling_ratio = proposed ? 0.55 : 0.50;
  config.operating_point = {.water_flow_kg_h = 7.0, .water_inlet_c = 30.0};
  // Cold solves: every value such a server computes is then a pure
  // function of its inputs, which is what lets solve-cache keys name it and
  // lets one server serve any sequence of misses (see cached_solve).
  config.reuse_thermal_state = false;
  return config;
}

}  // namespace tpcool::core
