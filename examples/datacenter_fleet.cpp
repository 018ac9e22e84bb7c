/// \file datacenter_fleet.cpp
/// \brief Fleet-level walkthrough: a small datacenter of heterogeneous
///        racks (the three §VIII approaches behind their own chillers)
///        plays a day of mixed workload streams; jobs are dispatched by a
///        placement policy, each rack solves the §V shared-cooling
///        problem, and the fleet rolls up IT power, chiller power, PUE,
///        and QoS violations per interval.
///
/// All solves go through the global SolveCache, so the second and third
/// policies replay most of the first one's solves from the cache, and only
/// a cache miss checks a server out of the pool — the whole example runs
/// in seconds.

#include <iostream>

#include "tpcool/core/pipeline_pool.hpp"
#include "tpcool/core/solve_cache.hpp"
#include "tpcool/datacenter/fleet.hpp"
#include "tpcool/util/table.hpp"

int main() {
  using namespace tpcool;

  // 4 racks x 2 servers, cycling the three approaches; 6 workload streams
  // (alternating the daily and stress patterns at staggered scales).
  datacenter::FleetConfig config =
      datacenter::make_heterogeneous_fleet(4, 2, 2.0e-3);
  std::vector<workload::WorkloadTrace> streams;
  for (std::size_t s = 0; s < 6; ++s) {
    const double scale = 1.0 + 0.5 * static_cast<double>(s % 3);
    streams.push_back(s % 2 == 0 ? workload::make_daily_trace(scale)
                                 : workload::make_stress_trace(scale));
  }

  std::cout << "== Datacenter fleet: 4 racks x 2 servers, 6 workload "
               "streams ==\n\n";

  util::TablePrinter summary({"policy", "intervals", "IT [kWh]",
                              "chiller [kWh]", "fleet PUE",
                              "QoS violations"});
  for (const std::string& policy : datacenter::placement_policy_names()) {
    config.placement = policy;
    datacenter::FleetModel fleet(config);
    const datacenter::FleetResult result = fleet.run(streams);

    if (policy == "round-robin") {
      // Interval-by-interval detail for the first policy.
      util::TablePrinter intervals({"t [s]", "jobs", "IT [W]",
                                    "chiller [W]", "PUE", "violations",
                                    "rack setpoints [C]"});
      for (const datacenter::FleetInterval& iv : result.intervals) {
        std::string setpoints;
        for (const datacenter::RackInterval& rack : iv.racks) {
          if (!setpoints.empty()) setpoints += "/";
          setpoints += rack.jobs == 0
                           ? "-"
                           : util::TablePrinter::fmt(
                                 rack.cooling.supply_temp_c, 0);
        }
        intervals.add_row({util::TablePrinter::fmt(iv.start_s, 1),
                           std::to_string(iv.jobs.size()),
                           util::TablePrinter::fmt(iv.it_power_w, 0),
                           util::TablePrinter::fmt(iv.chiller_power_w, 1),
                           util::TablePrinter::fmt(iv.pue, 3),
                           std::to_string(iv.qos_violations), setpoints});
      }
      std::cout << "--- timeline under " << policy << " ---\n";
      intervals.print(std::cout);
      std::cout << "\n";
    }

    summary.add_row({policy, std::to_string(result.intervals.size()),
                     util::TablePrinter::fmt(
                         result.total_it_energy_j / 3.6e6, 4),
                     util::TablePrinter::fmt(
                         result.total_chiller_energy_j / 3.6e6, 4),
                     util::TablePrinter::fmt(result.avg_pue, 3),
                     std::to_string(result.qos_violations)});
  }

  std::cout << "--- placement policies compared ---\n";
  summary.print(std::cout);

  const core::SolveCache::Stats cache = core::SolveCache::global()->stats();
  const core::PipelinePool::Stats pool = core::PipelinePool::global().stats();
  std::cout << "\nsolve cache: " << cache.misses << " coupled solves, "
            << cache.hits << " served from the cache\n"
            // How many checkouts built a server depends on thread timing;
            // their total does not.
            << "pipeline pool: " << pool.constructions + pool.reuses
            << " server checkouts\n"
            << "\nthe thermosyphon fleet runs near free cooling (PUE ~1.0x);"
            " placement only\nmoves the chiller bill a little because every"
            " rack's setpoint stays high.\n";
  return 0;
}
