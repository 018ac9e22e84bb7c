#include "tpcool/floorplan/floorplan.hpp"

#include <algorithm>
#include <cmath>

#include "tpcool/util/error.hpp"

namespace tpcool::floorplan {

double Rect::overlap_area(const Rect& other) const {
  const double w = std::min(x1, other.x1) - std::max(x0, other.x0);
  const double h = std::min(y1, other.y1) - std::max(y0, other.y0);
  if (w <= 0.0 || h <= 0.0) return 0.0;
  return w * h;
}

const char* to_string(UnitType type) {
  switch (type) {
    case UnitType::kCore: return "core";
    case UnitType::kCache: return "cache";
    case UnitType::kMemoryController: return "memctrl";
    case UnitType::kUncore: return "uncore";
    case UnitType::kReserved: return "reserved";
  }
  return "?";
}

Floorplan::Floorplan(double die_width, double die_height,
                     std::vector<Unit> units)
    : die_width_(die_width), die_height_(die_height), units_(std::move(units)) {
  TPCOOL_REQUIRE(die_width > 0.0 && die_height > 0.0,
                 "die dimensions must be positive");
  TPCOOL_REQUIRE(!units_.empty(), "floorplan needs at least one unit");

  const Rect outline{0.0, 0.0, die_width_, die_height_};
  constexpr double kTol = 1e-12;  // m² — overlap tolerance for shared edges.

  for (std::size_t i = 0; i < units_.size(); ++i) {
    const Unit& u = units_[i];
    TPCOOL_REQUIRE(u.rect.valid(), "unit '" + u.name + "' has invalid rect");
    TPCOOL_REQUIRE(!u.name.empty(), "unit name must be non-empty");
    TPCOOL_REQUIRE(
        std::abs(u.rect.overlap_area(outline) - u.rect.area()) < kTol,
        "unit '" + u.name + "' extends beyond the die outline");
    for (std::size_t j = i + 1; j < units_.size(); ++j) {
      TPCOOL_REQUIRE(u.rect.overlap_area(units_[j].rect) < kTol,
                     "units '" + u.name + "' and '" + units_[j].name +
                         "' overlap");
      TPCOOL_REQUIRE(u.name != units_[j].name,
                     "duplicate unit name '" + u.name + "'");
    }
  }

  // Collect core sites and derive their grid coordinates from geometry:
  // columns by distinct x-centers (west first), rows by y-center descending
  // (north row = row 0).
  std::vector<const Unit*> core_units;
  for (const Unit& u : units_) {
    if (u.type == UnitType::kCore) {
      TPCOOL_REQUIRE(u.core_id >= 1, "core '" + u.name + "' needs core_id >= 1");
      core_units.push_back(&u);
    }
  }
  std::vector<double> xs, ys;
  for (const Unit* u : core_units) {
    xs.push_back(u->rect.center_x());
    ys.push_back(u->rect.center_y());
  }
  const auto distinct = [](std::vector<double> v) {
    std::sort(v.begin(), v.end());
    v.erase(std::unique(v.begin(), v.end(),
                        [](double a, double b) { return std::abs(a - b) < 1e-6; }),
            v.end());
    return v;
  };
  const std::vector<double> cols = distinct(xs);
  std::vector<double> rows = distinct(ys);
  std::reverse(rows.begin(), rows.end());  // north first

  for (const Unit* u : core_units) {
    CoreSite site;
    site.core_id = u->core_id;
    site.rect = u->rect;
    for (std::size_t c = 0; c < cols.size(); ++c) {
      if (std::abs(u->rect.center_x() - cols[c]) < 1e-6)
        site.column = static_cast<int>(c);
    }
    for (std::size_t r = 0; r < rows.size(); ++r) {
      if (std::abs(u->rect.center_y() - rows[r]) < 1e-6)
        site.row = static_cast<int>(r);
    }
    cores_.push_back(site);
  }
  std::sort(cores_.begin(), cores_.end(),
            [](const CoreSite& a, const CoreSite& b) {
              return a.core_id < b.core_id;
            });
  for (std::size_t i = 0; i < cores_.size(); ++i) {
    TPCOOL_REQUIRE(cores_[i].core_id == static_cast<int>(i) + 1,
                   "core ids must be contiguous starting at 1");
  }
}

std::optional<std::size_t> Floorplan::index_of(const std::string& name) const {
  for (std::size_t i = 0; i < units_.size(); ++i) {
    if (units_[i].name == name) return i;
  }
  return std::nullopt;
}

const Unit& Floorplan::unit(const std::string& name) const {
  const auto idx = index_of(name);
  TPCOOL_REQUIRE(idx.has_value(), "no unit named '" + name + "'");
  return units_[*idx];
}

const CoreSite& Floorplan::core(int core_id) const {
  TPCOOL_REQUIRE(core_id >= 1 && core_id <= static_cast<int>(cores_.size()),
                 "core id out of range");
  return cores_[static_cast<std::size_t>(core_id - 1)];
}

}  // namespace tpcool::floorplan
