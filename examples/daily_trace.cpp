/// \file daily_trace.cpp
/// \brief Trace-driven scenario: a server plays a day-like workload pattern
///        (overnight batch, interactive bursts, latency-critical spikes)
///        through the scheduler and the transient thermal model, carrying
///        thermal state across phase switches.  The server is a one-rack,
///        one-server fleet on 30 °C water, played by the transient engine
///        with adaptive steps at its default tolerance.

#include <iostream>

#include "tpcool/datacenter/transient.hpp"
#include "tpcool/util/table.hpp"

int main() {
  using namespace tpcool;
  std::cout << "== Daily workload trace on the proposed system ==\n\n";

  datacenter::RackSpec server;
  server.name = "server";
  server.approach = core::Approach::kProposed;
  server.servers = 1;
  server.cell_size_m = 1.5e-3;
  server.supply_candidates_c = {30.0};
  datacenter::FleetConfig fleet;
  fleet.racks.push_back(server);

  const workload::WorkloadTrace trace = workload::make_daily_trace(8.0);
  const datacenter::TransientFleetResult result =
      datacenter::TransientFleetEngine(fleet, {}).run({trace});

  util::TablePrinter table({"phase", "benchmark", "QoS", "config", "idle",
                            "P [W]", "peak die [C]", "peak TCASE [C]",
                            "energy [J]"});
  for (std::size_t i = 0; i < result.intervals.size(); ++i) {
    const datacenter::FleetInterval& steady = result.steady.intervals[i];
    const datacenter::JobOutcome& job = steady.jobs.at(0);
    const datacenter::TransientJobOutcome& transient =
        result.intervals[i].jobs.at(0);
    table.add_row({std::to_string(i), job.benchmark,
                   util::TablePrinter::fmt(job.qos_factor, 0) + "x",
                   job.decision.point.config.label(),
                   power::to_string(job.decision.idle_state),
                   util::TablePrinter::fmt(steady.it_power_w, 1),
                   util::TablePrinter::fmt(transient.peak_die_c, 1),
                   util::TablePrinter::fmt(transient.peak_tcase_c, 1),
                   util::TablePrinter::fmt(
                       steady.it_power_w * steady.duration_s, 0)});
  }
  table.print(std::cout);

  std::cout << "\ntrace duration  : " << trace.total_duration_s() << " s\n"
            << "peak TCASE      : "
            << util::TablePrinter::fmt(result.peak_tcase_c, 1)
            << " C (limit 85, exceeded: "
            << (result.qos_violations > 0 ? "yes" : "no") << ")\n"
            << "package energy  : "
            << util::TablePrinter::fmt(result.steady.total_it_energy_j, 0)
            << " J\n"
            << "\nnote how the scheduler shifts between full-throttle "
               "configurations for the 1x\nbursts and small, deep-sleep "
               "configurations for the 3x batch phases — the\nthermosyphon "
               "absorbs both without approaching TCASE_MAX.\n";
  return 0;
}
