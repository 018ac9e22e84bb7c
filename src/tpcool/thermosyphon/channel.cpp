#include "tpcool/thermosyphon/channel.hpp"

#include <algorithm>
#include <cmath>

#include "tpcool/thermosyphon/boiling.hpp"
#include "tpcool/util/error.hpp"
#include "tpcool/util/interp.hpp"

namespace tpcool::thermosyphon {

ChannelSummary march_channel(const ChannelConditions& conditions,
                             const EvaporatorGeometry& geometry,
                             std::span<const double> heat_per_segment_w,
                             std::span<double> quality,
                             std::span<double> htc_w_m2k) {
  TPCOOL_REQUIRE(conditions.fluid != nullptr, "channel needs a refrigerant");
  TPCOOL_REQUIRE(conditions.mass_flow_kg_s > 0.0,
                 "channel mass flow must be positive");
  TPCOOL_REQUIRE(conditions.inlet_quality >= 0.0 &&
                     conditions.inlet_quality < 1.0,
                 "inlet quality outside [0, 1)");
  TPCOOL_REQUIRE(!heat_per_segment_w.empty(), "channel needs segments");
  TPCOOL_REQUIRE(quality.size() == heat_per_segment_w.size() &&
                     htc_w_m2k.size() == heat_per_segment_w.size(),
                 "channel output size mismatch");
  geometry.validate();

  const materials::Refrigerant& fluid = *conditions.fluid;
  const double t_sat = conditions.t_sat_c;
  const double h_fg = fluid.latent_heat_j_kg(t_sat);
  const double seg_len =
      geometry.channel_length_m() /
      static_cast<double>(heat_per_segment_w.size());
  const double seg_base_area = geometry.heated_width_m() * seg_len;
  const double mass_flux =
      conditions.mass_flow_kg_s / geometry.channel_flow_area_m2();
  const double x_dry = dryout_quality(conditions.filling_ratio, mass_flux);

  // The t_sat-only factors of local_htc, once per march.  The Cooper
  // prefactor is cooper_htc's product up to the flux term, multiplied in
  // the same left-to-right order, so prefactor · q''^0.67 is cooper_htc
  // bit for bit; fluxes under its 1 kW/m² floor all get the floor value.
  const double reduced_pressure = fluid.reduced_pressure(t_sat);
  const double molar_mass = fluid.molar_mass_g_mol();
  TPCOOL_REQUIRE(reduced_pressure > 0.0 && reduced_pressure < 1.0,
                 "reduced pressure outside (0, 1)");
  TPCOOL_REQUIRE(molar_mass > 0.0, "molar mass must be positive");
  const double cooper = 55.0 * std::pow(reduced_pressure, 0.12) *
                        std::pow(-std::log10(reduced_pressure), -0.55) *
                        std::pow(molar_mass, -0.5);
  constexpr double kCooperFloorFlux = 1.0e3;
  const double h_cooper_floor = cooper * std::pow(kCooperFloorFlux, 0.67);
  const double h_liquid = single_phase_liquid_htc(
      fluid, t_sat, geometry.hydraulic_diameter_m());

  // E(x) and S(x) of the last wetted quality: past dry-out the clamped
  // quality is x_dry on every segment, and along an unheated stretch it
  // does not move.
  double last_x = -1.0;
  double enhancement = 0.0;
  double suppression = 0.0;

  ChannelSummary summary;
  double x = conditions.inlet_quality;
  for (std::size_t i = 0; i < heat_per_segment_w.size(); ++i) {
    const double q_w = heat_per_segment_w[i];
    TPCOOL_REQUIRE(q_w >= 0.0, "negative segment heat");
    // Quality at the segment centre, then advance across the segment.
    const double dx = q_w / (conditions.mass_flow_kg_s * h_fg);
    const double x_mid = util::clamp(x + 0.5 * dx, 0.0, 1.0);
    const double flux = q_w / seg_base_area;
    const double h_nucleate = flux > kCooperFloorFlux
                                  ? cooper * std::pow(flux, 0.67)
                                  : h_cooper_floor;
    // local_htc's regimes, in its order and with its operand order.
    double h = 0.0;
    if (x_mid < 1e-6) {
      h = std::max(h_nucleate, h_liquid);
    } else {
      const double x_wet = std::min(x_mid, x_dry);
      if (x_wet != last_x) {
        enhancement = convective_enhancement(x_wet);
        suppression = near_dryout_suppression(x_wet, x_dry);
        last_x = x_wet;
      }
      const double h_wet = h_nucleate * enhancement * suppression;
      h = x_mid <= x_dry ? std::max(h_wet, h_liquid)
                         : post_dryout_htc(h_wet, x_mid, x_dry);
    }
    quality[i] = x_mid;
    htc_w_m2k[i] = h;
    if (x_mid > x_dry) summary.dried_out = true;
    x = util::clamp(x + dx, 0.0, 1.0);
    summary.absorbed_w += q_w;
  }
  summary.exit_quality = x;
  return summary;
}

}  // namespace tpcool::thermosyphon
