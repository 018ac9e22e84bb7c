#pragma once
/// \file channel.hpp
/// \brief 1D marching model of a single evaporator micro-channel: vapor
///        quality and local HTC along the flow direction.

#include <span>

#include "tpcool/materials/refrigerant.hpp"
#include "tpcool/thermosyphon/geometry.hpp"

namespace tpcool::thermosyphon {

/// Per-channel result of a march.
struct ChannelSummary {
  double exit_quality = 0.0;
  double absorbed_w = 0.0;   ///< Total heat absorbed by the channel.
  bool dried_out = false;    ///< Any segment past the dry-out quality.
};

/// Inputs of a channel march.
struct ChannelConditions {
  const materials::Refrigerant* fluid = nullptr;
  double t_sat_c = 35.0;
  double mass_flow_kg_s = 1e-3;     ///< Flow through this channel.
  double inlet_quality = 0.0;       ///< Usually ~0 (saturated liquid return).
  double filling_ratio = 0.55;
};

/// March a channel through `heat_per_segment_w` (W absorbed per segment,
/// ordered inlet→outlet). Quality grows as dx = q/(ṁ·h_fg); each segment's
/// HTC is `local_htc` (boiling.hpp) bit for bit, evaluated at its centre
/// quality and local heat flux (segment base area = heated_width × segment
/// length).  Writes the centre quality and the HTC of segment i to
/// `quality[i]` and `htc_w_m2k[i]`; both must be as long as the heat.
/// The saturation-temperature-only factors of the correlation are
/// evaluated once per march, not once per segment.
ChannelSummary march_channel(const ChannelConditions& conditions,
                             const EvaporatorGeometry& geometry,
                             std::span<const double> heat_per_segment_w,
                             std::span<double> quality,
                             std::span<double> htc_w_m2k);

}  // namespace tpcool::thermosyphon
