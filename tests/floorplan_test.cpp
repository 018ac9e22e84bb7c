// Tests for tpcool::floorplan — rectangles, the validated floorplan
// container, the Xeon E5 v4 builder (Fig. 2c) and power rasterization.

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>

#include "tpcool/floorplan/floorplan.hpp"
#include "tpcool/floorplan/power_map.hpp"
#include "tpcool/floorplan/xeon_e5.hpp"
#include "tpcool/util/error.hpp"

namespace tpcool::floorplan {
namespace {

// ------------------------------------------------------------------- Rect --

TEST(Rect, BasicGeometry) {
  const Rect r{1.0, 2.0, 4.0, 6.0};
  EXPECT_DOUBLE_EQ(r.width(), 3.0);
  EXPECT_DOUBLE_EQ(r.height(), 4.0);
  EXPECT_DOUBLE_EQ(r.area(), 12.0);
  EXPECT_DOUBLE_EQ(r.center_x(), 2.5);
  EXPECT_DOUBLE_EQ(r.center_y(), 4.0);
  EXPECT_TRUE(r.contains(1.0, 2.0));   // half-open: min edge inside
  EXPECT_FALSE(r.contains(4.0, 2.0));  // max edge outside
}

TEST(Rect, OverlapArea) {
  const Rect a{0.0, 0.0, 2.0, 2.0};
  EXPECT_DOUBLE_EQ(a.overlap_area({1.0, 1.0, 3.0, 3.0}), 1.0);
  EXPECT_DOUBLE_EQ(a.overlap_area({2.0, 0.0, 3.0, 1.0}), 0.0);  // touching
  EXPECT_DOUBLE_EQ(a.overlap_area({0.5, 0.5, 1.5, 1.5}), 1.0);  // contained
}

TEST(Rect, Translated) {
  const Rect r = Rect{0.0, 0.0, 1.0, 1.0}.translated(2.0, 3.0);
  EXPECT_DOUBLE_EQ(r.x0, 2.0);
  EXPECT_DOUBLE_EQ(r.y1, 4.0);
}

// -------------------------------------------------------------- Floorplan --

TEST(Floorplan, RejectsOverlap) {
  std::vector<Unit> units{
      {"a", UnitType::kCore, {0.0, 0.0, 1.0, 1.0}, 1},
      {"b", UnitType::kCache, {0.5, 0.5, 1.5, 1.5}, 0},
  };
  EXPECT_THROW(Floorplan(2.0, 2.0, std::move(units)), util::PreconditionError);
}

TEST(Floorplan, RejectsOutOfBounds) {
  std::vector<Unit> units{{"a", UnitType::kCore, {0.0, 0.0, 3.0, 1.0}, 1}};
  EXPECT_THROW(Floorplan(2.0, 2.0, std::move(units)), util::PreconditionError);
}

TEST(Floorplan, RejectsDuplicateNames) {
  std::vector<Unit> units{
      {"a", UnitType::kCore, {0.0, 0.0, 1.0, 1.0}, 1},
      {"a", UnitType::kCache, {1.0, 0.0, 2.0, 1.0}, 0},
  };
  EXPECT_THROW(Floorplan(2.0, 2.0, std::move(units)), util::PreconditionError);
}

TEST(Floorplan, SharedEdgesAllowed) {
  std::vector<Unit> units{
      {"a", UnitType::kCore, {0.0, 0.0, 1.0, 2.0}, 1},
      {"b", UnitType::kCache, {1.0, 0.0, 2.0, 2.0}, 0},
  };
  const Floorplan fp(2.0, 2.0, std::move(units));
  EXPECT_EQ(fp.units().size(), 2u);
}

// ---------------------------------------------------------------- XeonE5 --

class XeonFloorplanTest : public ::testing::Test {
 protected:
  Floorplan fp_ = make_xeon_e5_floorplan();
};

TEST_F(XeonFloorplanTest, DieAreaMatchesPaper) {
  // Paper: 246 mm² die in 14 nm.
  EXPECT_NEAR(fp_.die_width() * fp_.die_height() * 1e6, 246.0, 2.0);
}

TEST_F(XeonFloorplanTest, HasEightCores) {
  EXPECT_EQ(fp_.core_count(), 8u);
  for (int id = 1; id <= 8; ++id) {
    EXPECT_EQ(fp_.core(id).core_id, id);
  }
}

TEST_F(XeonFloorplanTest, FullyTiled) {
  double covered = 0.0;
  for (const Unit& u : fp_.units()) covered += u.rect.area();
  EXPECT_NEAR(covered / (fp_.die_width() * fp_.die_height()), 1.0, 1e-9);
}

TEST_F(XeonFloorplanTest, CoreGridLayoutMatchesFig2c) {
  // West column holds cores 5..8 north→south; next column holds 1..4.
  EXPECT_EQ(fp_.core(5).column, 0);
  EXPECT_EQ(fp_.core(5).row, 0);
  EXPECT_EQ(fp_.core(8).column, 0);
  EXPECT_EQ(fp_.core(8).row, 3);
  EXPECT_EQ(fp_.core(1).column, 1);
  EXPECT_EQ(fp_.core(1).row, 0);
  EXPECT_EQ(fp_.core(4).column, 1);
  EXPECT_EQ(fp_.core(4).row, 3);
}

TEST_F(XeonFloorplanTest, CoresShareRowGeometry) {
  // Cores on the same row must share their y-extent (channel alignment).
  for (int row = 0; row < 4; ++row) {
    const CoreSite& west = fp_.core(5 + row);
    const CoreSite& east = fp_.core(1 + row);
    EXPECT_EQ(west.row, row);
    EXPECT_EQ(east.row, row);
    EXPECT_NEAR(west.rect.y0, east.rect.y0, 1e-12);
    EXPECT_NEAR(west.rect.y1, east.rect.y1, 1e-12);
  }
}

TEST_F(XeonFloorplanTest, DeadAreaOnTheEast) {
  // §VI-A: "a dead area producing no power on the right side of the die".
  const Unit& dead = fp_.unit("reserved_east");
  EXPECT_EQ(dead.type, UnitType::kReserved);
  EXPECT_NEAR(dead.rect.x1, fp_.die_width(), 1e-12);
  // It must be east of the LLC.
  EXPECT_GE(dead.rect.x0, fp_.unit("llc").rect.x1 - 1e-12);
}

TEST_F(XeonFloorplanTest, UncoreStripsAlongSouthEdge) {
  EXPECT_DOUBLE_EQ(fp_.unit("uncore_io").rect.y0, 0.0);
  EXPECT_NEAR(fp_.unit("memctrl").rect.y0, fp_.unit("uncore_io").rect.y1,
              1e-12);
}

TEST_F(XeonFloorplanTest, UnitLookup) {
  EXPECT_TRUE(fp_.index_of("llc").has_value());
  EXPECT_FALSE(fp_.index_of("nonexistent").has_value());
  EXPECT_THROW((void)fp_.unit("nonexistent"), util::PreconditionError);
  EXPECT_THROW((void)fp_.core(0), util::PreconditionError);
  EXPECT_THROW((void)fp_.core(9), util::PreconditionError);
}

TEST_F(XeonFloorplanTest, UnitsOfTypeCounts) {
  const auto count = [&](UnitType type) {
    return std::count_if(fp_.units().begin(), fp_.units().end(),
                         [&](const Unit& u) { return u.type == type; });
  };
  EXPECT_EQ(count(UnitType::kCore), 8);
  EXPECT_EQ(count(UnitType::kCache), 1);
  EXPECT_EQ(count(UnitType::kReserved), 3);
}

// --------------------------------------------------------------- PowerMap --

class PowerMapTest : public ::testing::Test {
 protected:
  Floorplan fp_ = make_xeon_e5_floorplan();
  GridSpec grid_ = [] {
    GridSpec g;
    g.x0 = 0.0;
    g.y0 = 0.0;
    g.dx = 0.5e-3;
    g.dy = 0.5e-3;
    g.nx = 90;  // 45 mm — larger than the die, as in the package grid
    g.ny = 85;
    return g;
  }();
};

TEST_F(PowerMapTest, ConservesTotalPower) {
  UnitPowers powers{{"core1", 5.0}, {"core5", 3.0}, {"llc", 2.0},
                    {"memctrl", 4.0}, {"uncore_io", 6.0}};
  const auto map = rasterize_power(fp_, powers, grid_, 13.0e-3, 14.0e-3);
  EXPECT_NEAR(util::grid_sum(map), total_power(powers), 1e-9);
}

TEST_F(PowerMapTest, PowerLandsInsideUnitFootprint) {
  UnitPowers powers{{"core5", 8.0}};
  const double ox = 13.0e-3, oy = 14.0e-3;
  const auto map = rasterize_power(fp_, powers, grid_, ox, oy);
  const Rect footprint = fp_.core(5).rect.translated(ox, oy);
  for (std::size_t iy = 0; iy < grid_.ny; ++iy) {
    for (std::size_t ix = 0; ix < grid_.nx; ++ix) {
      if (map(ix, iy) > 0.0) {
        EXPECT_GT(footprint.overlap_area(grid_.cell_rect(ix, iy)), 0.0);
      }
    }
  }
}

TEST_F(PowerMapTest, ZeroAndNegativePowers) {
  UnitPowers zero{{"core1", 0.0}};
  EXPECT_DOUBLE_EQ(util::grid_sum(rasterize_power(fp_, zero, grid_, 13e-3, 14e-3)),
                   0.0);
  UnitPowers negative{{"core1", -1.0}};
  EXPECT_THROW(rasterize_power(fp_, negative, grid_, 13e-3, 14e-3),
               util::PreconditionError);
}

TEST_F(PowerMapTest, UnknownUnitThrows) {
  UnitPowers powers{{"bogus", 1.0}};
  EXPECT_THROW(rasterize_power(fp_, powers, grid_, 13e-3, 14e-3),
               util::PreconditionError);
}

TEST_F(PowerMapTest, UnitOutsideGridThrows) {
  // Push the die past the grid's east edge: conservation must fail loudly.
  UnitPowers powers{{"core1", 5.0}};
  EXPECT_THROW(rasterize_power(fp_, powers, grid_, 40.0e-3, 14.0e-3),
               util::InvariantError);
}

TEST_F(PowerMapTest, CellRectTiling) {
  double area = 0.0;
  for (std::size_t iy = 0; iy < grid_.ny; ++iy) {
    for (std::size_t ix = 0; ix < grid_.nx; ++ix) {
      area += grid_.cell_rect(ix, iy).area();
    }
  }
  EXPECT_NEAR(area, grid_.width() * grid_.height(), 1e-12);
}

}  // namespace
}  // namespace tpcool::floorplan
