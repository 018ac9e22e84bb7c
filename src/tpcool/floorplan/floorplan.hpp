#pragma once
/// \file floorplan.hpp
/// \brief Die floorplan representation: rectangles, functional units, and a
///        validated container with geometric queries.
///
/// Coordinates are in metres, origin at the die's south-west corner, x
/// growing east and y growing north (matching Fig. 2c of the paper when the
/// die shot is viewed with the core columns on the west side).

#include <cstddef>
#include <optional>
#include <string>
#include <vector>

namespace tpcool::floorplan {

/// Axis-aligned rectangle [x0, x1) × [y0, y1), in metres.
struct Rect {
  double x0 = 0.0, y0 = 0.0, x1 = 0.0, y1 = 0.0;

  [[nodiscard]] double width() const { return x1 - x0; }
  [[nodiscard]] double height() const { return y1 - y0; }
  [[nodiscard]] double area() const { return width() * height(); }
  [[nodiscard]] double center_x() const { return 0.5 * (x0 + x1); }
  [[nodiscard]] double center_y() const { return 0.5 * (y0 + y1); }

  [[nodiscard]] bool contains(double x, double y) const {
    return x >= x0 && x < x1 && y >= y0 && y < y1;
  }

  /// Area of the intersection with another rectangle (0 if disjoint).
  [[nodiscard]] double overlap_area(const Rect& other) const;

  /// Rectangle translated by (dx, dy).
  [[nodiscard]] Rect translated(double dx, double dy) const {
    return {x0 + dx, y0 + dy, x1 + dx, y1 + dy};
  }

  [[nodiscard]] bool valid() const { return x1 > x0 && y1 > y0; }
};

/// Functional-unit class, which determines how power is assigned.
enum class UnitType {
  kCore,              ///< Core + private L1/L2 (dynamic + C-state power).
  kCache,             ///< Last-level cache.
  kMemoryController,  ///< Memory controller strip.
  kUncore,            ///< Queue, uncore, IO controller strip.
  kReserved,          ///< Fused-off / dead area (zero power).
};

[[nodiscard]] const char* to_string(UnitType type);

/// A named functional unit of the die.
struct Unit {
  std::string name;
  UnitType type = UnitType::kReserved;
  Rect rect;
  /// For cores: 1-based core id matching the paper's numbering; 0 otherwise.
  int core_id = 0;
};

/// Position of a core in the regular core grid (2 columns × 4 rows on
/// Broadwell-EP).  Row 0 is the northernmost row; column 0 is the west one.
struct CoreSite {
  int core_id = 0;
  int column = 0;
  int row = 0;
  Rect rect;
};

/// Validated floorplan: units must be pairwise non-overlapping and inside
/// the die outline.
class Floorplan {
 public:
  /// \param die_width/die_height die outline [m].
  /// \param units functional units; validated on construction.
  Floorplan(double die_width, double die_height, std::vector<Unit> units);

  [[nodiscard]] double die_width() const noexcept { return die_width_; }
  [[nodiscard]] double die_height() const noexcept { return die_height_; }

  [[nodiscard]] const std::vector<Unit>& units() const noexcept {
    return units_;
  }

  /// Lookup by name; nullopt when absent.
  [[nodiscard]] std::optional<std::size_t> index_of(
      const std::string& name) const;

  [[nodiscard]] const Unit& unit(const std::string& name) const;

  /// Core sites sorted by core_id (1-based ids, contiguous).
  [[nodiscard]] const std::vector<CoreSite>& cores() const noexcept {
    return cores_;
  }
  [[nodiscard]] std::size_t core_count() const noexcept {
    return cores_.size();
  }
  [[nodiscard]] const CoreSite& core(int core_id) const;

 private:
  double die_width_;
  double die_height_;
  std::vector<Unit> units_;
  std::vector<CoreSite> cores_;
};

}  // namespace tpcool::floorplan
