#pragma once
/// \file rootfind.hpp
/// \brief Scalar root finding by bisection (the thermosyphon loop, the
///        refrigerant model and the cooling models solve with it).

#include <cmath>
#include <cstddef>
#include <functional>

#include "tpcool/util/error.hpp"

namespace tpcool::util {

struct BisectionOptions {
  double tolerance = 1e-9;      ///< Absolute tolerance on the bracket width.
  std::size_t max_iterations = 200;
};

/// Find x in [lo, hi] with f(x) = 0 by bisection. Requires f(lo) and f(hi)
/// to have opposite signs (or one of them to be zero).
template <typename F>
[[nodiscard]] double bisect(F&& f, double lo, double hi,
                            const BisectionOptions& options = {}) {
  TPCOOL_REQUIRE(lo < hi, "bisect: invalid bracket");
  double flo = f(lo);
  double fhi = f(hi);
  if (flo == 0.0) return lo;
  if (fhi == 0.0) return hi;
  TPCOOL_REQUIRE(std::signbit(flo) != std::signbit(fhi),
                 "bisect: bracket does not straddle a root");
  for (std::size_t it = 0; it < options.max_iterations; ++it) {
    const double mid = 0.5 * (lo + hi);
    const double fmid = f(mid);
    if (fmid == 0.0 || (hi - lo) < options.tolerance) return mid;
    if (std::signbit(fmid) == std::signbit(flo)) {
      lo = mid;
      flo = fmid;
    } else {
      hi = mid;
    }
  }
  return 0.5 * (lo + hi);
}

}  // namespace tpcool::util
