#include "tpcool/util/csv.hpp"

#include <iomanip>

namespace tpcool::util {

void write_grid_csv(std::ostream& out, const Grid2D<double>& grid) {
  for (std::size_t iy = grid.ny(); iy-- > 0;) {
    for (std::size_t ix = 0; ix < grid.nx(); ++ix) {
      if (ix != 0) out << ',';
      out << std::setprecision(8) << grid(ix, iy);
    }
    out << '\n';
  }
}

}  // namespace tpcool::util
