/// \file fleet_control.cpp
/// \brief Closed-loop fleet control walkthrough: the same diurnal day runs
///        twice — open-loop, then with a `FleetController` tracking a
///        fleet PUE target — and the hourly rollups show the uncontrolled
///        PUE drifting with the load swing while the controlled run is
///        pulled onto the target band and held there by per-rack supply
///        biases.
///
/// The controller is just another `FleetObserver` (measurement → windowed
/// average → damped error → per-rack bias), so it composes with every
/// other observer; here a rollup reducer watches both runs and a console
/// ticker prints the controller's own state as the loop settles.

#include <cstdio>
#include <iostream>

#include "tpcool/datacenter/control.hpp"
#include "tpcool/datacenter/fleet.hpp"
#include "tpcool/datacenter/streaming.hpp"
#include "tpcool/datacenter/workload_gen.hpp"
#include "tpcool/util/table.hpp"

namespace {

using namespace tpcool;

/// Prints the control loop's state every few intervals: the windowed
/// error and the biases actually applied to each rack.
class ControlTicker final : public datacenter::FleetObserver {
 public:
  void on_interval(const datacenter::FleetInterval& interval,
                   const datacenter::IntervalCounters& counters) override {
    (void)counters;
    if (!interval.control.active || interval.interval % 8 != 0) return;
    std::cout << "  t=" << util::TablePrinter::fmt(
                     interval.start_s / 3600.0, 1)
              << "h  PUE=" << util::TablePrinter::fmt(interval.pue, 3)
              << "  err=" << util::TablePrinter::fmt(
                     interval.control.error, 4)
              << "  bias_c=[";
    for (std::size_t r = 0; r < interval.control.rack_bias_c.size(); ++r) {
      std::cout << (r ? ", " : "")
                << util::TablePrinter::fmt(interval.control.rack_bias_c[r], 0);
    }
    std::cout << "]\n";
  }
};

void print_rollups(const char* label,
                   const std::vector<datacenter::FleetRollupReducer::Rollup>&
                       rollups) {
  std::cout << label << " (3-hourly PUE min..max):";
  for (const auto& rollup : rollups) {
    std::cout << "  " << util::TablePrinter::fmt(rollup.pue_min, 3) << ".."
              << util::TablePrinter::fmt(rollup.pue_max, 3);
  }
  std::cout << "\n";
}

}  // namespace

int main() {
  // The canonical PUE-tracking scenario the control tests also use: a
  // generated diurnal day on the two-rack heterogeneous demo fleet.
  datacenter::ControlScenario scenario =
      datacenter::make_pue_tracking_day(42, 4, 2.0e-3);

  // Open loop first: the diurnal swing drags the fleet PUE around.
  datacenter::StreamingFleetEngine open_loop(scenario.fleet,
                                             scenario.streams);
  datacenter::FleetRollupReducer open_rollup(3.0 * 3600.0);
  open_loop.add_observer(open_rollup);
  open_loop.run();
  print_rollups("open loop  ", open_rollup.rollups());
  std::cout << "open-loop fleet PUE: "
            << util::TablePrinter::fmt(open_loop.summary().avg_pue, 3)
            << "\n\n";

  // Closed loop: same fleet, same day, controller in the loop.
  std::cout << "closed loop, target PUE "
            << util::TablePrinter::fmt(scenario.controller.target, 3)
            << ":\n";
  datacenter::FleetController controller(scenario.controller);
  datacenter::StreamingFleetEngine closed_loop(scenario.fleet,
                                               scenario.streams);
  closed_loop.set_controller(controller);
  datacenter::FleetRollupReducer closed_rollup(3.0 * 3600.0);
  ControlTicker ticker;
  closed_loop.add_observer(closed_rollup);
  closed_loop.add_observer(ticker);
  closed_loop.run();
  print_rollups("closed loop", closed_rollup.rollups());
  std::cout << "closed-loop fleet PUE: "
            << util::TablePrinter::fmt(closed_loop.summary().avg_pue, 3)
            << " (target "
            << util::TablePrinter::fmt(scenario.controller.target, 3)
            << ")\n";
  return 0;
}
