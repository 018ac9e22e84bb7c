#pragma once
/// \file grid2d.hpp
/// \brief Dense row-major 2D grid container used for power maps, HTC maps and
///        per-layer temperature fields.

#include <algorithm>
#include <cstddef>
#include <vector>

#include "tpcool/util/error.hpp"

namespace tpcool::util {

/// Dense 2D array addressed as (ix, iy) with ix in [0, nx) horizontal
/// (west -> east) and iy in [0, ny) vertical (south -> north).  Storage is
/// row-major in iy, i.e. the x index varies fastest.
template <typename T>
class Grid2D {
 public:
  Grid2D() = default;

  Grid2D(std::size_t nx, std::size_t ny, T fill = T{})
      : nx_(nx), ny_(ny), data_(nx * ny, fill) {
    TPCOOL_REQUIRE(nx > 0 && ny > 0, "grid dimensions must be positive");
  }

  [[nodiscard]] std::size_t nx() const noexcept { return nx_; }
  [[nodiscard]] std::size_t ny() const noexcept { return ny_; }
  [[nodiscard]] std::size_t size() const noexcept { return data_.size(); }
  [[nodiscard]] bool empty() const noexcept { return data_.empty(); }

  [[nodiscard]] T& at(std::size_t ix, std::size_t iy) {
    TPCOOL_REQUIRE(ix < nx_ && iy < ny_, "grid index out of range");
    return data_[iy * nx_ + ix];
  }
  [[nodiscard]] const T& at(std::size_t ix, std::size_t iy) const {
    TPCOOL_REQUIRE(ix < nx_ && iy < ny_, "grid index out of range");
    return data_[iy * nx_ + ix];
  }

  /// Unchecked access for hot loops; callers must guarantee bounds.
  [[nodiscard]] T& operator()(std::size_t ix, std::size_t iy) noexcept {
    return data_[iy * nx_ + ix];
  }
  [[nodiscard]] const T& operator()(std::size_t ix,
                                    std::size_t iy) const noexcept {
    return data_[iy * nx_ + ix];
  }

  [[nodiscard]] std::vector<T>& data() noexcept { return data_; }
  [[nodiscard]] const std::vector<T>& data() const noexcept { return data_; }

  void fill(const T& value) { std::fill(data_.begin(), data_.end(), value); }

  /// Element-wise transform in place.
  template <typename F>
  void apply(F&& f) {
    for (auto& v : data_) v = f(v);
  }

  [[nodiscard]] bool same_shape(const Grid2D& other) const noexcept {
    return nx_ == other.nx_ && ny_ == other.ny_;
  }

 private:
  std::size_t nx_ = 0;
  std::size_t ny_ = 0;
  std::vector<T> data_;
};

/// Sum of all elements (useful for conservation checks on power maps).
template <typename T>
[[nodiscard]] T grid_sum(const Grid2D<T>& g) {
  T s{};
  for (const auto& v : g.data()) s += v;
  return s;
}

/// Maximum element of a non-empty grid.
template <typename T>
[[nodiscard]] T grid_max(const Grid2D<T>& g) {
  TPCOOL_REQUIRE(!g.empty(), "grid_max of empty grid");
  return *std::max_element(g.data().begin(), g.data().end());
}

}  // namespace tpcool::util
