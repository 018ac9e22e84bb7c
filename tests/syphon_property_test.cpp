// Property sweeps over the full thermosyphon design space: for every
// (refrigerant × filling ratio × orientation) combination the solver must
// uphold the same physical invariants, and energy balance must also hold
// on every grid pitch from 3 mm down to 0.375 mm. Parameterized gtest
// (TEST_P).

#include <gtest/gtest.h>

#include <cmath>
#include <cstddef>
#include <string>
#include <tuple>
#include <utility>
#include <vector>

#include "tpcool/thermosyphon/thermosyphon.hpp"
#include "tpcool/util/error.hpp"

namespace tpcool::thermosyphon {
namespace {

using Params = std::tuple<const materials::Refrigerant*, double, Orientation>;

class SyphonDesignSpace : public ::testing::TestWithParam<Params> {
 protected:
  static floorplan::GridSpec grid() {
    floorplan::GridSpec g;
    g.dx = 1e-3;
    g.dy = 1e-3;
    g.nx = 46;
    g.ny = 44;
    return g;
  }
  static floorplan::Rect footprint() {
    return {1.0e-3, 1.0e-3, 45.0e-3, 43.0e-3};
  }

  ThermosyphonDesign design() const {
    ThermosyphonDesign d;
    d.refrigerant = std::get<0>(GetParam());
    d.filling_ratio = std::get<1>(GetParam());
    d.evaporator.orientation = std::get<2>(GetParam());
    return d;
  }

  static util::Grid2D<double> centred_heat(double watts) {
    util::Grid2D<double> heat(46, 44, 0.0);
    for (std::size_t iy = 14; iy < 30; ++iy) {
      for (std::size_t ix = 15; ix < 31; ++ix) {
        heat(ix, iy) = watts / (16.0 * 16.0);
      }
    }
    return heat;
  }
};

std::string design_name(const materials::Refrigerant* fluid, double fr,
                        Orientation orientation) {
  return fluid->name() + "_fr" +
         std::to_string(static_cast<int>(std::lround(fr * 100))) + "_" +
         (orientation == Orientation::kEastWest ? "EW" : "NS");
}

std::string param_name(const ::testing::TestParamInfo<Params>& info) {
  const auto& [fluid, fr, orientation] = info.param;
  return design_name(fluid, fr, orientation);
}

INSTANTIATE_TEST_SUITE_P(
    DesignSpace, SyphonDesignSpace,
    ::testing::Combine(
        ::testing::Values(&materials::r236fa(), &materials::r134a(),
                          &materials::r245fa()),
        ::testing::Values(0.35, 0.55, 0.75),
        ::testing::Values(Orientation::kEastWest,
                          Orientation::kNorthSouth)),
    param_name);

// Energy balance across the design space and a grid-pitch ladder: at coarse
// pitches many channels cover no cell centre (21 of the 35 east-west ones
// at 3 mm), yet every watt the cells carry must still reach the loop.
using PitchParams =
    std::tuple<const materials::Refrigerant*, double, Orientation, double>;

class SyphonPitchLadder : public ::testing::TestWithParam<PitchParams> {};

std::string pitch_param_name(
    const ::testing::TestParamInfo<PitchParams>& info) {
  const auto& [fluid, fr, orientation, pitch] = info.param;
  return design_name(fluid, fr, orientation) + "_" +
         std::to_string(std::lround(pitch * 1e6)) + "um";
}

INSTANTIATE_TEST_SUITE_P(
    DesignSpace, SyphonPitchLadder,
    ::testing::Combine(
        ::testing::Values(&materials::r236fa(), &materials::r134a(),
                          &materials::r245fa()),
        ::testing::Values(0.35, 0.55, 0.75),
        ::testing::Values(Orientation::kEastWest, Orientation::kNorthSouth),
        ::testing::Values(3e-3, 2e-3, 1.5e-3, 1.2e-3, 1.0e-3, 0.75e-3, 0.5e-3,
                          0.375e-3)),
    pitch_param_name);

TEST_P(SyphonPitchLadder, EnergyBalanceHolds) {
  const auto& [fluid, filling_ratio, orientation, pitch] = GetParam();
  ThermosyphonDesign d;
  d.refrigerant = fluid;
  d.filling_ratio = filling_ratio;
  d.evaporator.orientation = orientation;
  // The 1 mm grid above, re-meshed: 46 x 44 mm around the same footprint.
  floorplan::GridSpec g;
  g.dx = pitch;
  g.dy = pitch;
  g.nx = static_cast<std::size_t>(std::ceil(46e-3 / pitch - 1e-9));
  g.ny = static_cast<std::size_t>(std::ceil(44e-3 / pitch - 1e-9));
  const floorplan::Rect footprint{1.0e-3, 1.0e-3, 45.0e-3, 43.0e-3};

  // 60 W spread evenly over the cells whose centre lies in the footprint.
  std::vector<std::pair<std::size_t, std::size_t>> inside;
  for (std::size_t iy = 0; iy < g.ny; ++iy) {
    for (std::size_t ix = 0; ix < g.nx; ++ix) {
      const floorplan::Rect cell = g.cell_rect(ix, iy);
      if (footprint.contains(cell.center_x(), cell.center_y())) {
        inside.emplace_back(ix, iy);
      }
    }
  }
  ASSERT_FALSE(inside.empty());
  util::Grid2D<double> heat(g.nx, g.ny, 0.0);
  double cell_heat = 0.0;
  for (const auto& [ix, iy] : inside) {
    heat(ix, iy) = 60.0 / static_cast<double>(inside.size());
    cell_heat += heat(ix, iy);
  }

  const Thermosyphon ts(d, g, footprint);
  const ThermosyphonState s = ts.solve(heat, {});
  EXPECT_NEAR(s.q_total_w, cell_heat, 1e-9);
  double absorbed = 0.0;
  for (const auto& ch : s.channels) absorbed += ch.absorbed_w;
  EXPECT_NEAR(absorbed, cell_heat, 1e-9);
}

TEST_P(SyphonDesignSpace, TemperatureOrderingHolds) {
  const Thermosyphon ts(design(), grid(), footprint());
  const ThermosyphonState s = ts.solve(centred_heat(60.0), {});
  EXPECT_GT(s.t_sat_c, 30.0);            // above the water inlet
  EXPECT_LT(s.t_sat_c, 70.0);            // physically sane
  EXPECT_GT(s.water_outlet_c, 30.0);
  EXPECT_LT(s.water_outlet_c, s.t_sat_c + 1e-9);  // condenser second law
}

TEST_P(SyphonDesignSpace, CirculationScalesSensiblyWithLoad) {
  const Thermosyphon ts(design(), grid(), footprint());
  const ThermosyphonState low = ts.solve(centred_heat(25.0), {});
  const ThermosyphonState high = ts.solve(centred_heat(75.0), {});
  EXPECT_GT(low.refrigerant_flow_kg_s, 0.0);
  EXPECT_GT(high.refrigerant_flow_kg_s, 0.0);
  // Exit quality must grow with load (flow self-regulation is sub-linear).
  EXPECT_GT(high.loop_exit_quality, low.loop_exit_quality);
}

TEST_P(SyphonDesignSpace, HtcMapIsNonNegativeAndFootprintBound) {
  const Thermosyphon ts(design(), grid(), footprint());
  const ThermosyphonState s = ts.solve(centred_heat(60.0), {});
  for (std::size_t iy = 0; iy < 44; ++iy) {
    for (std::size_t ix = 0; ix < 46; ++ix) {
      const double h = s.htc_map(ix, iy);
      EXPECT_GE(h, 0.0);
      EXPECT_LT(h, 1.0e6);
      const auto cell = grid().cell_rect(ix, iy);
      if (!footprint().contains(cell.center_x(), cell.center_y())) {
        EXPECT_DOUBLE_EQ(h, 0.0);
      }
    }
  }
}

TEST_P(SyphonDesignSpace, ColderWaterLowersSaturation) {
  const Thermosyphon ts(design(), grid(), footprint());
  const ThermosyphonState warm =
      ts.solve(centred_heat(60.0), {.water_inlet_c = 35.0});
  const ThermosyphonState cold =
      ts.solve(centred_heat(60.0), {.water_inlet_c = 15.0});
  EXPECT_GT(warm.t_sat_c, cold.t_sat_c + 10.0);
}

TEST_P(SyphonDesignSpace, QualityProfilesWithinBounds) {
  const Thermosyphon ts(design(), grid(), footprint());
  const ThermosyphonState s = ts.solve(centred_heat(70.0), {});
  for (const auto& ch : s.channels) {
    EXPECT_GE(ch.exit_quality, 0.0);
    EXPECT_LE(ch.exit_quality, 1.0);
    EXPECT_GE(ch.absorbed_w, 0.0);
  }
}

}  // namespace
}  // namespace tpcool::thermosyphon
