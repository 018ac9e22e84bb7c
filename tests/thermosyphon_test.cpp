// Tests for tpcool::thermosyphon — geometry, boiling correlations, channel
// marching, condenser, natural-circulation loop, and the bound Thermosyphon
// model including dry-out behaviour and the filling-ratio optimum.

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <string>
#include <vector>

#include "tpcool/thermal/stack.hpp"
#include "tpcool/thermosyphon/boiling.hpp"
#include "tpcool/thermosyphon/channel.hpp"
#include "tpcool/thermosyphon/condenser.hpp"
#include "tpcool/thermosyphon/geometry.hpp"
#include "tpcool/thermosyphon/loop.hpp"
#include "tpcool/thermosyphon/thermosyphon.hpp"
#include "tpcool/util/error.hpp"
#include "tpcool/util/fnv.hpp"

namespace tpcool::thermosyphon {
namespace {

using materials::r236fa;

// --------------------------------------------------------------- geometry --

TEST(Geometry, ChannelCountDependsOnOrientation) {
  EvaporatorGeometry g;  // 44 × 42 mm footprint, 1.2 mm pitch
  g.orientation = Orientation::kEastWest;
  const std::size_t ew = g.channel_count();
  g.orientation = Orientation::kNorthSouth;
  const std::size_t ns = g.channel_count();
  EXPECT_EQ(ew, 35u);  // 42 mm transverse / 1.2 mm
  EXPECT_EQ(ns, 36u);  // 44 mm transverse / 1.2 mm
  EXPECT_NE(ew, ns);   // §VI-A: orientation changes the channel count
}

TEST(Geometry, ChannelLengthFollowsFlowDirection) {
  EvaporatorGeometry g;
  g.orientation = Orientation::kEastWest;
  EXPECT_DOUBLE_EQ(g.channel_length_m(), 44.0e-3);
  g.orientation = Orientation::kNorthSouth;
  EXPECT_DOUBLE_EQ(g.channel_length_m(), 42.0e-3);
}

TEST(Geometry, HydraulicDiameter) {
  EvaporatorGeometry g;
  const double expected = 2.0 * 0.8e-3 * 1.5e-3 / (0.8e-3 + 1.5e-3);
  EXPECT_NEAR(g.hydraulic_diameter_m(), expected, 1e-12);
}

// ---------------------------------------------------------------- boiling --

TEST(Boiling, CooperIncreasesWithFlux) {
  const double low = cooper_htc(0.1, 152.0, 5.0e4);
  const double high = cooper_htc(0.1, 152.0, 2.0e5);
  EXPECT_GT(high, low);
  // q^0.67 scaling.
  EXPECT_NEAR(high / low, std::pow(4.0, 0.67), 1e-9);
}

TEST(Boiling, CooperMagnitudeReasonable) {
  // R236fa-class fluid at typical evaporator flux: 5–30 kW/m²K.
  const double h = cooper_htc(r236fa().reduced_pressure(40.0),
                              r236fa().molar_mass_g_mol(), 1.0e5);
  EXPECT_GT(h, 5.0e3);
  EXPECT_LT(h, 3.0e4);
}

TEST(Boiling, CooperRejectsBadInputs) {
  EXPECT_THROW((void)cooper_htc(0.0, 152.0, 1e5), util::PreconditionError);
  EXPECT_THROW((void)cooper_htc(1.0, 152.0, 1e5), util::PreconditionError);
  EXPECT_THROW((void)cooper_htc(0.1, -1.0, 1e5), util::PreconditionError);
}

TEST(Boiling, EnhancementMonotoneInQuality) {
  double prev = convective_enhancement(0.0);
  EXPECT_DOUBLE_EQ(prev, 1.0);
  for (double x = 0.1; x <= 1.0; x += 0.1) {
    const double e = convective_enhancement(x);
    EXPECT_GT(e, prev);
    prev = e;
  }
}

TEST(Boiling, DryoutQualityGrowsWithFillAndFlux) {
  EXPECT_LT(dryout_quality(0.35, 50.0), dryout_quality(0.55, 50.0));
  EXPECT_LT(dryout_quality(0.55, 20.0), dryout_quality(0.55, 300.0));
  EXPECT_GE(dryout_quality(0.05, 0.0), 0.25);
  EXPECT_LE(dryout_quality(1.0, 1e4), 0.95);
}

TEST(Boiling, SuppressionKicksInNearDryout) {
  const double x_dry = 0.5;
  EXPECT_DOUBLE_EQ(near_dryout_suppression(0.1, x_dry), 1.0);
  EXPECT_DOUBLE_EQ(near_dryout_suppression(0.2, x_dry), 1.0);
  EXPECT_LT(near_dryout_suppression(0.4, x_dry), 1.0);
  EXPECT_NEAR(near_dryout_suppression(0.5, x_dry), 0.3, 1e-9);
}

TEST(Boiling, LocalHtcCollapsesPastDryout) {
  const double x_dry = dryout_quality(0.55, 50.0);
  const double wet = local_htc(r236fa(), 40.0, x_dry * 0.5, 1e5, 50.0, 0.55,
                               1.0e-3);
  const double dry = local_htc(r236fa(), 40.0,
                               std::min(x_dry + 0.25, 1.0), 1e5, 50.0, 0.55,
                               1.0e-3);
  EXPECT_GT(wet, 3.0 * dry);
  EXPECT_GE(dry, kVaporHtcW_m2K);
}

TEST(Boiling, SinglePhaseLaminarFloor) {
  const double h = single_phase_liquid_htc(r236fa(), 35.0, 1.0e-3);
  EXPECT_NEAR(h, 4.36 * r236fa().liquid_conductivity_w_mk(35.0) / 1.0e-3,
              1e-9);
}

// ---------------------------------------------------------------- channel --

/// One march's per-segment outputs and summary.
struct Profile {
  std::vector<double> quality;
  std::vector<double> htc_w_m2k;
  ChannelSummary summary;
};

Profile march(const ChannelConditions& cond, const EvaporatorGeometry& geom,
              const std::vector<double>& heat) {
  Profile p;
  p.quality.resize(heat.size());
  p.htc_w_m2k.resize(heat.size());
  p.summary = march_channel(cond, geom, heat, p.quality, p.htc_w_m2k);
  return p;
}

TEST(Channel, QualityGrowsMonotonically) {
  ChannelConditions cond;
  cond.fluid = &r236fa();
  cond.t_sat_c = 40.0;
  cond.mass_flow_kg_s = 5e-5;
  EvaporatorGeometry geom;
  const std::vector<double> heat(20, 0.2);  // 4 W total
  const Profile p = march(cond, geom, heat);
  ASSERT_EQ(p.quality.size(), 20u);
  for (std::size_t i = 1; i < p.quality.size(); ++i) {
    EXPECT_GE(p.quality[i], p.quality[i - 1]);
  }
  EXPECT_DOUBLE_EQ(p.summary.absorbed_w, 4.0);
}

TEST(Channel, EnergyBalanceSetsExitQuality) {
  ChannelConditions cond;
  cond.fluid = &r236fa();
  cond.t_sat_c = 40.0;
  cond.mass_flow_kg_s = 1e-4;
  EvaporatorGeometry geom;
  const double q_total = 2.0;
  const std::vector<double> heat(10, q_total / 10.0);
  const Profile p = march(cond, geom, heat);
  const double expected =
      q_total / (cond.mass_flow_kg_s * r236fa().latent_heat_j_kg(40.0));
  EXPECT_NEAR(p.summary.exit_quality, expected, 1e-9);
}

TEST(Channel, OverloadedChannelDriesOut) {
  ChannelConditions cond;
  cond.fluid = &r236fa();
  cond.t_sat_c = 40.0;
  cond.mass_flow_kg_s = 2e-5;  // starved channel
  EvaporatorGeometry geom;
  const std::vector<double> heat(10, 0.5);  // 5 W >> ṁ·h_fg margin
  const Profile p = march(cond, geom, heat);
  EXPECT_TRUE(p.summary.dried_out);
  // HTC in the dried tail must be far below the wetted peak.
  EXPECT_GT(*std::max_element(p.htc_w_m2k.begin(), p.htc_w_m2k.end()),
            3.0 * p.htc_w_m2k.back());
}

TEST(Channel, ZeroHeatKeepsLiquid) {
  ChannelConditions cond;
  cond.fluid = &r236fa();
  cond.mass_flow_kg_s = 1e-4;
  EvaporatorGeometry geom;
  const Profile p = march(cond, geom, std::vector<double>(5, 0.0));
  EXPECT_DOUBLE_EQ(p.summary.exit_quality, 0.0);
  EXPECT_FALSE(p.summary.dried_out);
}

// The march evaluates local_htc's saturation-temperature factors once and
// reuses E(x)·S(x); every segment's HTC must still be local_htc's, bit for
// bit, in every regime the correlation has.
TEST(Channel, HtcIsLocalHtcBitForBit) {
  EvaporatorGeometry geom;
  // Inlet to outlet: no heat and a trace of it (quality under 1e-6),
  // fluxes under Cooper's 1 kW/m² floor, the wetted rise, unheated
  // stretches (wetted, near dry-out and past it), the near-dry-out
  // suppression, just past dry-out, and far past it at the vapour floor.
  const std::vector<double> heat = {
      0.0, 1e-9, 0.001, 0.002, 0.0, 0.0, 0.3, 0.3, 0.3, 0.5,
      0.5, 0.3,  0.3,   0.0,   0.5, 0.5, 0.6, 0.1, 0.0, 0.0,
      1.0, 1.0,  1.0,   0.0};
  const double seg_area = geom.heated_width_m() *
                          (geom.channel_length_m() /
                           static_cast<double>(heat.size()));
  for (const double t_sat : {35.0, 55.0}) {
    ChannelConditions cond;
    cond.fluid = &r236fa();
    cond.t_sat_c = t_sat;
    cond.mass_flow_kg_s = 5e-5;
    const double mass_flux = cond.mass_flow_kg_s / geom.channel_flow_area_m2();
    const double x_dry = dryout_quality(cond.filling_ratio, mass_flux);
    const Profile p = march(cond, geom, heat);

    int trace = 0, under_floor = 0, wetted = 0, near_dry = 0, past = 0,
        vapour = 0, unheated = 0;
    for (std::size_t i = 0; i < heat.size(); ++i) {
      const double x = p.quality[i];
      const double flux = heat[i] / seg_area;
      EXPECT_EQ(p.htc_w_m2k[i],
                local_htc(r236fa(), t_sat, x, flux, mass_flux,
                          cond.filling_ratio, geom.hydraulic_diameter_m()))
          << "t_sat " << t_sat << ", segment " << i;
      trace += heat[i] > 0.0 && x < 1e-6;
      under_floor += heat[i] > 0.0 && flux < 1.0e3 && x >= 1e-6;
      wetted += x >= 1e-6 && x <= 0.45 * x_dry;
      near_dry += x > 0.45 * x_dry && x <= x_dry;
      past += x > x_dry && p.htc_w_m2k[i] > kVaporHtcW_m2K;
      vapour += x > x_dry && p.htc_w_m2k[i] == kVaporHtcW_m2K;
      unheated += heat[i] == 0.0 && x >= 1e-6;
    }
    // Every regime is visited at both saturation temperatures.
    EXPECT_GT(trace, 0) << t_sat;
    EXPECT_GT(under_floor, 0) << t_sat;
    EXPECT_GT(wetted, 0) << t_sat;
    EXPECT_GT(near_dry, 0) << t_sat;
    EXPECT_GT(past, 0) << t_sat;
    EXPECT_GT(vapour, 0) << t_sat;
    EXPECT_GT(unheated, 2) << t_sat;
  }
}

// -------------------------------------------------------------- condenser --

TEST(Condenser, EffectivenessInUnitRange) {
  const CondenserDesign d;
  const double eff = condenser_effectiveness(d, 0.55, 8.1);
  EXPECT_GT(eff, 0.8);  // NTU ≈ 3 at the paper's 7 kg/h
  EXPECT_LT(eff, 1.0);
}

TEST(Condenser, SaturationRisesWithLoad) {
  const CondenserDesign d;
  const double t1 = saturation_temperature_c(d, 0.55, 40.0, 30.0, 8.1);
  const double t2 = saturation_temperature_c(d, 0.55, 80.0, 30.0, 8.1);
  EXPECT_GT(t2, t1);
  EXPECT_GT(t1, 30.0);
}

TEST(Condenser, OverchargeDeratesUa) {
  const CondenserDesign d;
  EXPECT_DOUBLE_EQ(d.effective_ua_w_k(0.55), d.ua_w_k);
  EXPECT_LT(d.effective_ua_w_k(0.85), d.ua_w_k);
  EXPECT_GE(d.effective_ua_w_k(1.0), 0.20 * d.ua_w_k);
  // Flooding raises the required saturation temperature.
  EXPECT_GT(saturation_temperature_c(d, 0.9, 60.0, 30.0, 8.1),
            saturation_temperature_c(d, 0.55, 60.0, 30.0, 8.1));
}

TEST(Condenser, WaterOutletEnergyBalance) {
  // 7 kg/h picking up 49 W: ΔT ≈ 6 °C (the paper's §VIII-B figure).
  const double c_w = materials::water_capacity_rate_w_k(7.0, 30.0);
  EXPECT_NEAR(water_outlet_c(49.0, 30.0, c_w) - 30.0, 6.0, 0.3);
}

// ------------------------------------------------------------------- loop --

TEST(Loop, VoidFractionBounds) {
  EXPECT_DOUBLE_EQ(void_fraction(r236fa(), 40.0, 0.0), 0.0);
  EXPECT_DOUBLE_EQ(void_fraction(r236fa(), 40.0, 1.0), 1.0);
  const double mid = void_fraction(r236fa(), 40.0, 0.2);
  EXPECT_GT(mid, 0.5);  // vapor occupies most volume even at modest quality
  EXPECT_LT(mid, 1.0);
}

TEST(Loop, RiserDensityDecreasesWithQuality) {
  double prev = riser_density_kg_m3(r236fa(), 40.0, 0.0);
  for (double x = 0.1; x <= 1.0; x += 0.1) {
    const double rho = riser_density_kg_m3(r236fa(), 40.0, x);
    EXPECT_LT(rho, prev);
    prev = rho;
  }
}

TEST(Loop, BalancesDriveAndFriction) {
  const LoopState s = solve_loop(r236fa(), 40.0, 79.0, 0.55);
  EXPECT_GT(s.mass_flow_kg_s, 0.0);
  EXPECT_GT(s.exit_quality, 0.0);
  EXPECT_LT(s.exit_quality, 1.0);
  EXPECT_NEAR(s.driving_pa, s.friction_pa, 1e-3 * s.driving_pa);
}

TEST(Loop, ZeroLoadNoCirculation) {
  const LoopState s = solve_loop(r236fa(), 40.0, 0.0, 0.55);
  EXPECT_DOUBLE_EQ(s.mass_flow_kg_s, 0.0);
}

TEST(Loop, UnderchargeReducesFlow) {
  const LoopState full = solve_loop(r236fa(), 40.0, 60.0, 0.55);
  const LoopState low = solve_loop(r236fa(), 40.0, 60.0, 0.25);
  EXPECT_GT(full.mass_flow_kg_s, low.mass_flow_kg_s);
}

TEST(Loop, RejectsBadArguments) {
  EXPECT_THROW((void)solve_loop(r236fa(), 40.0, -1.0, 0.55),
               util::PreconditionError);
  EXPECT_THROW((void)solve_loop(r236fa(), 40.0, 10.0, 0.0),
               util::PreconditionError);
}

// ------------------------------------------------------------ thermosyphon --

class ThermosyphonTest : public ::testing::Test {
 protected:
  static ThermosyphonDesign design(Orientation o = Orientation::kEastWest,
                                   double fr = 0.55) {
    ThermosyphonDesign d;
    d.evaporator.orientation = o;
    d.refrigerant = &r236fa();
    d.filling_ratio = fr;
    return d;
  }

  static floorplan::GridSpec grid() {
    floorplan::GridSpec g;
    g.dx = 1e-3;
    g.dy = 1e-3;
    g.nx = 45;
    g.ny = 43;
    return g;
  }

  static floorplan::Rect footprint() {
    // 44 × 42 mm footprint matching the default geometry, offset so that
    // the grid's border cells (centres at 0.5 mm) stay outside.
    return {1.0e-3, 1.0e-3, 45.0e-3, 43.0e-3};
  }

  /// Heat map with `watts` spread over a centred square block.
  static util::Grid2D<double> block_heat(double watts, std::size_t half = 8) {
    util::Grid2D<double> heat(45, 43, 0.0);
    const std::size_t cx = 22, cy = 21;
    const std::size_t n = (2 * half) * (2 * half);
    for (std::size_t iy = cy - half; iy < cy + half; ++iy) {
      for (std::size_t ix = cx - half; ix < cx + half; ++ix) {
        heat(ix, iy) = watts / static_cast<double>(n);
      }
    }
    return heat;
  }
};

TEST_F(ThermosyphonTest, EnergyAccountingConsistent) {
  const Thermosyphon ts(design(), grid(), footprint());
  const ThermosyphonState s = ts.solve(block_heat(60.0), {});
  EXPECT_NEAR(s.q_total_w, 60.0, 1e-9);
  double absorbed = 0.0;
  for (const auto& ch : s.channels) absorbed += ch.absorbed_w;
  EXPECT_NEAR(absorbed, 60.0, 1e-9);
  // Water-side balance: ΔT = Q / (ṁ·cp).
  const double c_w = materials::water_capacity_rate_w_k(7.0, 30.0);
  EXPECT_NEAR(s.water_outlet_c - 30.0, 60.0 / c_w, 1e-9);
}

TEST_F(ThermosyphonTest, HtcOnlyInsideFootprint) {
  const Thermosyphon ts(design(), grid(), footprint());
  const ThermosyphonState s = ts.solve(block_heat(40.0), {});
  // Probe the footprint interior and the package corner.
  EXPECT_GT(s.htc_map(22, 21), 1.0e3);
  EXPECT_DOUBLE_EQ(s.htc_map(0, 0), 0.0);
}

TEST_F(ThermosyphonTest, SaturationAboveWaterInlet) {
  const Thermosyphon ts(design(), grid(), footprint());
  const ThermosyphonState s = ts.solve(block_heat(50.0), {});
  EXPECT_GT(s.t_sat_c, 30.0);
  EXPECT_LT(s.t_sat_c, 60.0);
}

TEST_F(ThermosyphonTest, MoreWaterFlowLowersSaturation) {
  const Thermosyphon ts(design(), grid(), footprint());
  const ThermosyphonState slow =
      ts.solve(block_heat(50.0), {.water_flow_kg_h = 4.0});
  const ThermosyphonState fast =
      ts.solve(block_heat(50.0), {.water_flow_kg_h = 20.0});
  EXPECT_GT(slow.t_sat_c, fast.t_sat_c);
}

TEST_F(ThermosyphonTest, ConcentratedHeatDriesOutStarvedChannels) {
  const Thermosyphon ts(design(), grid(), footprint());
  // Same power, concentrated into a narrow band of channels.
  const ThermosyphonState spread = ts.solve(block_heat(60.0, 12), {});
  const ThermosyphonState tight = ts.solve(block_heat(60.0, 3), {});
  int spread_dry = 0, tight_dry = 0;
  double spread_max = 0.0, tight_max = 0.0;
  for (const auto& ch : spread.channels) {
    spread_dry += ch.dried_out;
    spread_max = std::max(spread_max, ch.exit_quality);
  }
  for (const auto& ch : tight.channels) {
    tight_dry += ch.dried_out;
    tight_max = std::max(tight_max, ch.exit_quality);
  }
  EXPECT_GT(tight_max, spread_max);
  EXPECT_GE(tight_dry, spread_dry);
  EXPECT_TRUE(tight.any_dryout);
}

TEST_F(ThermosyphonTest, FillingRatioOptimumNearPaperChoice) {
  // §VI-B: the paper charges at 55 %. Under-charge starves the loop (less
  // circulation, higher exit quality, earlier dry-out margin); over-charge
  // floods the condenser (higher saturation temperature). The nominal
  // charge beats both extremes on the combined figure of merit.
  const auto solve_at = [&](double fr) {
    const Thermosyphon ts(design(Orientation::kEastWest, fr), grid(),
                          footprint());
    return ts.solve(block_heat(70.0, 6), {});
  };
  const auto max_exit = [](const ThermosyphonState& s) {
    double x = 0.0;
    for (const auto& ch : s.channels) x = std::max(x, ch.exit_quality);
    return x;
  };
  const ThermosyphonState nominal = solve_at(0.55);
  const ThermosyphonState under = solve_at(0.25);
  const ThermosyphonState over = solve_at(0.95);

  // Under-charge: less circulation, deeper into dry-out.
  EXPECT_LT(under.refrigerant_flow_kg_s, nominal.refrigerant_flow_kg_s);
  EXPECT_GT(under.loop_exit_quality, nominal.loop_exit_quality);
  // Over-charge: flooded condenser raises the whole loop temperature.
  EXPECT_GT(over.t_sat_c, nominal.t_sat_c + 1.0);

  // Combined °C-equivalent score: T_sat plus a dry-out-margin penalty.
  const auto score = [&](const ThermosyphonState& s) {
    return s.t_sat_c + 10.0 * s.loop_exit_quality + 2.0 * max_exit(s);
  };
  EXPECT_LT(score(nominal), score(under));
  EXPECT_LT(score(nominal), score(over));
}

TEST_F(ThermosyphonTest, HeatOutsideFootprintRejected) {
  const Thermosyphon ts(design(), grid(), footprint());
  util::Grid2D<double> heat(45, 43, 0.0);
  heat(0, 0) = 5.0;  // package corner, outside the evaporator
  EXPECT_THROW(ts.solve(heat, {}), util::PreconditionError);
}

TEST_F(ThermosyphonTest, MismatchedFootprintRejected) {
  ThermosyphonDesign d = design();
  d.evaporator.footprint_width_m = 30e-3;  // smaller than the stack's rect
  EXPECT_THROW(Thermosyphon(d, grid(), footprint()), util::PreconditionError);
}

TEST_F(ThermosyphonTest, ZeroLoadGivesStagnantPoolHtc) {
  const Thermosyphon ts(design(), grid(), footprint());
  const ThermosyphonState s = ts.solve(util::Grid2D<double>(45, 43, 0.0), {});
  EXPECT_DOUBLE_EQ(s.q_total_w, 0.0);
  EXPECT_GT(s.htc_map(22, 21), 100.0);   // liquid-pool convection floor
  EXPECT_LT(s.htc_map(22, 21), 2000.0);
}

// ------------------------------------------------------ golden solve digest --

/// FNV-1a digest of what a solve hands the thermal model and its callers:
/// both maps, the loop state and every channel summary, as exact bits.
std::uint64_t solve_digest(const ThermosyphonState& s) {
  std::uint64_t digest = util::kFnvOffsetBasis;
  for (const double h : s.htc_map.data()) util::fnv_f64(digest, h);
  for (const double t : s.fluid_temp_map.data()) util::fnv_f64(digest, t);
  util::fnv_f64(digest, s.t_sat_c);
  util::fnv_f64(digest, s.refrigerant_flow_kg_s);
  util::fnv_f64(digest, s.loop_exit_quality);
  util::fnv_f64(digest, s.water_outlet_c);
  util::fnv_f64(digest, s.q_total_w);
  for (const ChannelSummary& ch : s.channels) {
    util::fnv_f64(digest, ch.exit_quality);
    util::fnv_f64(digest, ch.absorbed_w);
    util::fnv_u64(digest, ch.dried_out ? 1 : 0);
  }
  util::fnv_u64(digest, s.any_dryout ? 1 : 0);
  return digest;
}

/// `watts` over the die's cells of `stack`'s grid, uneven like a mapped
/// workload: every cell carries a share from 1 to 11, and a block of cells
/// on the die's west side 40 more.  At 35 W some channels dry out, others
/// stay wetted, and those beside the die carry no heat.
util::Grid2D<double> die_heat(const thermal::StackModel& stack,
                              double watts) {
  const floorplan::GridSpec& g = stack.grid;
  const floorplan::Rect& die = stack.die_region;
  const double hot_x1 = die.x0 + 0.3 * die.width();
  const double hot_y0 = die.y0 + 0.3 * die.height();
  const double hot_y1 = die.y0 + 0.6 * die.height();
  util::Grid2D<double> share(g.nx, g.ny, 0.0);
  double total = 0.0;
  for (std::size_t iy = 0; iy < g.ny; ++iy) {
    for (std::size_t ix = 0; ix < g.nx; ++ix) {
      const floorplan::Rect cell = g.cell_rect(ix, iy);
      const double cx = cell.center_x();
      const double cy = cell.center_y();
      if (!die.contains(cx, cy)) continue;
      double w = 1.0 + static_cast<double>((ix * 7 + iy * 3) % 11);
      if (cx < hot_x1 && cy >= hot_y0 && cy < hot_y1) w += 40.0;
      share(ix, iy) = w;
      total += w;
    }
  }
  for (double& q : share.data()) q *= watts / total;
  return share;
}

// Pins Thermosyphon::solve bit for bit on the package grid at the two
// pitches the workloads run (2 mm fleet, 0.75 mm paper battery), in both
// orientations.  The literals were captured before the solve's routing and
// channel march were rewritten for speed; any change to either that moves
// a single bit of a map, the loop state or a channel summary fails here.
TEST(ThermosyphonGolden, SolveDigestIsPinned) {
  struct Case {
    double pitch_m;
    Orientation orientation;
    std::uint64_t digest;
  };
  const Case cases[] = {
      {2.0e-3, Orientation::kEastWest, 0x119e4465f8dcfb5bULL},
      {2.0e-3, Orientation::kNorthSouth, 0x38b52b491eee6858ULL},
      {0.75e-3, Orientation::kEastWest, 0x1132389b369a7d0dULL},
      {0.75e-3, Orientation::kNorthSouth, 0x52acb7c9cb1fdd3bULL},
  };
  for (const Case& c : cases) {
    thermal::PackageStackConfig config;
    config.cell_size_m = c.pitch_m;
    const thermal::StackModel stack = thermal::make_package_stack(config);
    ThermosyphonDesign design;
    design.evaporator.orientation = c.orientation;
    const Thermosyphon ts(design, stack.grid, stack.evaporator_region);
    const ThermosyphonState s = ts.solve(die_heat(stack, 35.0), {});
    std::size_t dried = 0;
    std::size_t unheated = 0;
    for (const ChannelSummary& ch : s.channels) {
      dried += ch.dried_out ? 1 : 0;
      unheated += ch.absorbed_w == 0.0 ? 1 : 0;
    }
    const std::string name = std::to_string(c.pitch_m) + " m, " +
                             to_string(c.orientation);
    // The map exercises every branch of the march.
    EXPECT_GT(dried, 0u) << name;
    EXPECT_LT(dried + unheated, s.channels.size()) << name;
    EXPECT_GT(unheated, 0u) << name;
    EXPECT_EQ(solve_digest(s), c.digest)
        << name << ": 0x" << std::hex << solve_digest(s);

    // A heated cell outside the footprint is still refused.  At 2 mm every
    // cell centre of the 45 x 42.5 mm package lies inside the 44 x 42 mm
    // footprint; at 0.75 mm the border cells do not.
    const floorplan::Rect corner = stack.grid.cell_rect(0, 0);
    if (c.pitch_m < 1e-3) {
      ASSERT_FALSE(stack.evaporator_region.contains(corner.center_x(),
                                                    corner.center_y()));
      util::Grid2D<double> outside = die_heat(stack, 35.0);
      outside(0, 0) = 1.0;
      EXPECT_THROW((void)ts.solve(outside, {}), util::PreconditionError)
          << name;
    }
  }
}

}  // namespace
}  // namespace tpcool::thermosyphon
