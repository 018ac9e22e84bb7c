#pragma once
/// \file csv.hpp
/// \brief CSV dump of a 2D field, used by benches to write thermal maps for
///        external plotting.

#include <ostream>

#include "tpcool/util/grid2d.hpp"

namespace tpcool::util {

/// Dump a 2D field as a dense CSV matrix (one line per iy, north row first,
/// matching how thermal maps are usually plotted).
void write_grid_csv(std::ostream& out, const Grid2D<double>& grid);

}  // namespace tpcool::util
