#include "tpcool/thermosyphon/thermosyphon.hpp"

#include <algorithm>
#include <cmath>
#include <span>

#include "tpcool/thermosyphon/boiling.hpp"
#include "tpcool/util/error.hpp"

namespace tpcool::thermosyphon {

Thermosyphon::Thermosyphon(ThermosyphonDesign design, floorplan::GridSpec grid,
                           floorplan::Rect footprint)
    : design_(std::move(design)), grid_(grid), footprint_(footprint) {
  TPCOOL_REQUIRE(design_.refrigerant != nullptr, "design needs a refrigerant");
  TPCOOL_REQUIRE(footprint_.valid(), "invalid footprint");
  design_.evaporator.validate();
  TPCOOL_REQUIRE(design_.filling_ratio > 0.0 && design_.filling_ratio <= 1.0,
                 "filling ratio outside (0, 1]");
  // The geometry's footprint must match the rectangle the stack reserved.
  TPCOOL_REQUIRE(
      std::abs(design_.evaporator.footprint_width_m - footprint_.width()) <
              1e-6 &&
          std::abs(design_.evaporator.footprint_height_m -
                   footprint_.height()) < 1e-6,
      "evaporator geometry footprint does not match the stack footprint");

  n_channels_ = design_.evaporator.channel_count();

  // Segments follow the grid so each cell maps to exactly one segment.
  const bool east_west =
      design_.evaporator.orientation == Orientation::kEastWest;
  const double along = east_west ? footprint_.width() : footprint_.height();
  const double pitch = east_west ? grid_.dx : grid_.dy;
  n_segments_ = static_cast<std::size_t>(std::ceil(along / pitch));
  TPCOOL_ENSURE(n_segments_ >= 2, "footprint spans too few grid cells");

  // The transverse coordinate of a cell centre picks the channel, with the
  // fringe cells beyond the last full pitch clamped into the last channel;
  // the along-flow coordinate picks the segment.  Design 1 flows eastward
  // (inlet on the west); design 2 flows southward (inlet on the north).
  const double channel_pitch = design_.evaporator.pitch_m();
  const auto channel_slot = [&](double transverse) {
    const auto channel = std::min(
        static_cast<std::size_t>(transverse / channel_pitch), n_channels_ - 1);
    return channel * n_segments_;
  };
  const auto segment_slot = [&](double along_frac) {
    return std::min(static_cast<std::size_t>(
                        along_frac * static_cast<double>(n_segments_)),
                    n_segments_ - 1);
  };
  x_slot_.assign(grid_.nx, kOutside);
  for (std::size_t ix = 0; ix < grid_.nx; ++ix) {
    const double cx = grid_.cell_rect(ix, 0).center_x();
    if (!(cx >= footprint_.x0 && cx < footprint_.x1)) continue;
    x_slot_[ix] = east_west
                      ? segment_slot((cx - footprint_.x0) / footprint_.width())
                      : channel_slot(cx - footprint_.x0);
  }
  y_slot_.assign(grid_.ny, kOutside);
  for (std::size_t iy = 0; iy < grid_.ny; ++iy) {
    const double cy = grid_.cell_rect(0, iy).center_y();
    if (!(cy >= footprint_.y0 && cy < footprint_.y1)) continue;
    y_slot_[iy] = east_west ? channel_slot(cy - footprint_.y0)
                            : segment_slot((footprint_.y1 - cy) /
                                           footprint_.height());
  }
}

ThermosyphonState Thermosyphon::solve(const util::Grid2D<double>& heat_w,
                                      const OperatingPoint& op) const {
  TPCOOL_REQUIRE(heat_w.nx() == grid_.nx && heat_w.ny() == grid_.ny,
                 "heat map grid mismatch");
  TPCOOL_REQUIRE(op.water_flow_kg_h > 0.0, "water flow must be positive");

  ThermosyphonState state;
  state.htc_map = util::Grid2D<double>(grid_.nx, grid_.ny, 0.0);
  state.fluid_temp_map = util::Grid2D<double>(grid_.nx, grid_.ny, 0.0);

  // 1. Total load, and the cell heat routed into channel-major
  //    (channel, segment) slots, each channel inlet→outlet.
  std::vector<double> channel_heat(n_channels_ * n_segments_, 0.0);
  double q_total = 0.0;
  for (std::size_t iy = 0; iy < grid_.ny; ++iy) {
    for (std::size_t ix = 0; ix < grid_.nx; ++ix) {
      const double q = heat_w(ix, iy);
      if (q == 0.0) continue;
      TPCOOL_REQUIRE(q >= 0.0, "negative cell heat");
      TPCOOL_REQUIRE(x_slot_[ix] != kOutside && y_slot_[iy] != kOutside,
                     "heat assigned outside the evaporator footprint");
      q_total += q;
      channel_heat[x_slot_[ix] + y_slot_[iy]] += q;
    }
  }
  state.q_total_w = q_total;

  // 2. Condenser balance -> saturation temperature.
  const double c_w =
      materials::water_capacity_rate_w_k(op.water_flow_kg_h, op.water_inlet_c);
  state.t_sat_c =
      saturation_temperature_c(design_.condenser, design_.filling_ratio,
                               q_total, op.water_inlet_c, c_w);
  state.water_outlet_c = water_outlet_c(q_total, op.water_inlet_c, c_w);

  // 3. Natural-circulation mass flow at this saturation state.
  const LoopState loop = solve_loop(*design_.refrigerant, state.t_sat_c,
                                    q_total, design_.filling_ratio,
                                    design_.loop);
  state.refrigerant_flow_kg_s = loop.mass_flow_kg_s;
  state.loop_exit_quality = loop.exit_quality;

  // 4. March every channel with an equal share of the loop flow (parallel
  //    channels fed from a common header).
  state.channels.resize(n_channels_);
  const bool flowing = q_total > 1e-9 && loop.mass_flow_kg_s > 0.0;
  std::vector<double> htc;
  if (flowing) {
    htc.resize(channel_heat.size());
    std::vector<double> quality(n_segments_);
    ChannelConditions cond;
    cond.fluid = design_.refrigerant;
    cond.t_sat_c = state.t_sat_c;
    cond.mass_flow_kg_s =
        loop.mass_flow_kg_s / static_cast<double>(n_channels_);
    cond.filling_ratio = design_.filling_ratio;
    for (std::size_t ch = 0; ch < n_channels_; ++ch) {
      const std::size_t first = ch * n_segments_;
      state.channels[ch] = march_channel(
          cond, design_.evaporator,
          std::span<const double>(channel_heat).subspan(first, n_segments_),
          quality, std::span<double>(htc).subspan(first, n_segments_));
      state.any_dryout = state.any_dryout || state.channels[ch].dried_out;
    }
  }

  // 5. Paint the HTC and fluid-temperature maps.  An idle loop is a
  //    stagnant liquid pool: one convection HTC everywhere.
  const double h_pool =
      flowing ? 0.0
              : single_phase_liquid_htc(
                    *design_.refrigerant, state.t_sat_c,
                    design_.evaporator.hydraulic_diameter_m());
  for (std::size_t iy = 0; iy < grid_.ny; ++iy) {
    if (y_slot_[iy] == kOutside) continue;
    for (std::size_t ix = 0; ix < grid_.nx; ++ix) {
      if (x_slot_[ix] == kOutside) continue;
      state.fluid_temp_map(ix, iy) = state.t_sat_c;
      state.htc_map(ix, iy) =
          flowing ? htc[x_slot_[ix] + y_slot_[iy]] : h_pool;
    }
  }
  return state;
}

}  // namespace tpcool::thermosyphon
