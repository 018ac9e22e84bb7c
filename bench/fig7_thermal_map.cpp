/// \file fig7_thermal_map.cpp
/// \brief Regenerates Fig. 7: sample die thermal maps at 2x QoS — proposed
///        approach vs state of the art. Writes dense CSV maps and renders a
///        coarse ASCII preview.
///
/// Paper: the SoA hot spot is 78.2 °C; the proposed approach reaches 71.5 °C
/// on the same workload.

#include <fstream>
#include <iostream>
#include <string>

#include "tpcool/core/experiment.hpp"
#include "tpcool/util/csv.hpp"


namespace {

void ascii_map(const tpcool::util::Grid2D<double>& field, double lo,
               double hi) {
  static const char* shades = " .:-=+*#%@";
  // Downsample to at most ~60 columns.
  const std::size_t step = field.nx() > 60 ? field.nx() / 60 + 1 : 1;
  for (std::size_t iy = field.ny(); iy > 0; iy -= std::min(iy, step)) {
    for (std::size_t ix = 0; ix < field.nx(); ix += step) {
      const double t = field(ix, iy - 1);
      const int idx = static_cast<int>(9.99 * (t - lo) / (hi - lo));
      std::cout << shades[std::max(0, std::min(9, idx))];
    }
    std::cout << '\n';
  }
}

}  // namespace

int main(int argc, char** argv) {
  using namespace tpcool;
  core::ExperimentOptions options;
  if (argc > 1 && std::string(argv[1]) == "--fast") options.cell_size_m = 1.25e-3;

  std::cout << "== Fig. 7: die thermal maps @2x QoS (x264) ==\n\n";
  const core::Fig7Result r = core::run_fig7_maps(options);

  const double lo = 35.0;
  const double hi = std::max(r.soa_max_c, r.proposed_max_c);

  std::cout << "(a) proposed approach — die hot spot "
            << util::grid_max(r.proposed_map_c) << " C\n";
  ascii_map(r.proposed_map_c, lo, hi);
  std::cout << "\n(b) state of the art — die hot spot "
            << util::grid_max(r.soa_map_c) << " C\n";
  ascii_map(r.soa_map_c, lo, hi);

  std::cout << "\nhot spot: proposed " << r.proposed_max_c
            << " C vs state of the art " << r.soa_max_c
            << " C  (paper: 71.5 C vs 78.2 C)\n";

  std::ofstream a("fig7_proposed_map.csv"), b("fig7_soa_map.csv");
  util::write_grid_csv(a, r.proposed_map_c);
  util::write_grid_csv(b, r.soa_map_c);
  std::cout << "wrote fig7_proposed_map.csv, fig7_soa_map.csv\n";
  return 0;
}
