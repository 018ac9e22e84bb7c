#pragma once
/// \file interp.hpp
/// \brief Piecewise-linear interpolation tables (clamped at the ends),
///        used for fitted fluid-property curves and controller schedules.

#include <algorithm>
#include <cstddef>
#include <initializer_list>
#include <utility>
#include <vector>

#include "tpcool/util/error.hpp"

namespace tpcool::util {

/// Monotone-x piecewise-linear table.  Evaluation outside the x range clamps
/// to the end values (fluid-property fits must never extrapolate wildly).
class LinearTable {
 public:
  LinearTable() = default;

  LinearTable(std::vector<double> xs, std::vector<double> ys)
      : xs_(std::move(xs)), ys_(std::move(ys)) {
    TPCOOL_REQUIRE(xs_.size() == ys_.size(), "table sizes differ");
    TPCOOL_REQUIRE(xs_.size() >= 2, "table needs at least two points");
    TPCOOL_REQUIRE(std::is_sorted(xs_.begin(), xs_.end()),
                   "table x values must be sorted ascending");
    for (std::size_t i = 1; i < xs_.size(); ++i) {
      TPCOOL_REQUIRE(xs_[i] > xs_[i - 1], "table x values must be distinct");
    }
  }

  LinearTable(std::initializer_list<std::pair<double, double>> points) {
    xs_.reserve(points.size());
    ys_.reserve(points.size());
    for (const auto& [x, y] : points) {
      xs_.push_back(x);
      ys_.push_back(y);
    }
    *this = LinearTable(std::move(xs_), std::move(ys_));
  }

  [[nodiscard]] double operator()(double x) const {
    TPCOOL_REQUIRE(!xs_.empty(), "evaluating empty table");
    if (x <= xs_.front()) return ys_.front();
    if (x >= xs_.back()) return ys_.back();
    const auto it = std::upper_bound(xs_.begin(), xs_.end(), x);
    const std::size_t i = static_cast<std::size_t>(it - xs_.begin());
    const double t = (x - xs_[i - 1]) / (xs_[i] - xs_[i - 1]);
    return ys_[i - 1] + t * (ys_[i] - ys_[i - 1]);
  }

  [[nodiscard]] std::size_t size() const noexcept { return xs_.size(); }

 private:
  std::vector<double> xs_;
  std::vector<double> ys_;
};

/// Clamp helper with contract on the bounds.
[[nodiscard]] inline double clamp(double v, double lo, double hi) {
  TPCOOL_REQUIRE(lo <= hi, "clamp: inverted bounds");
  return std::min(std::max(v, lo), hi);
}

}  // namespace tpcool::util
