/// \file ablation_mapping_sweep.cpp
/// \brief Ablation generalizing Fig. 6: every mapping policy × active-core
///        count ∈ {2..7} × idle C-state ∈ {POLL, C1E}, on the proposed
///        design. Shows where the C-state-aware proposed policy wins and by
///        how much.
///
/// All 48 (policy, core count, idle state) cells are independent coupled
/// solves: they fan out over the thread pool (`TPCOOL_NUM_THREADS`) and dedupe
/// through the shared solve cache (policies that pick the same placement —
/// e.g. proposed ≡ balancing under POLL — share one solve).

#include <iostream>
#include <string>

#include "tpcool/core/parallel.hpp"
#include "tpcool/core/server.hpp"
#include "tpcool/mapping/balancing.hpp"
#include "tpcool/mapping/clustered.hpp"
#include "tpcool/mapping/inlet_first.hpp"
#include "tpcool/mapping/proposed.hpp"
#include "tpcool/util/table.hpp"


int main(int argc, char** argv) {
  using namespace tpcool;
  double cell = 1.25e-3;
  if (argc > 1 && std::string(argv[1]) == "--fast") cell = 1.75e-3;

  std::cout << "== Ablation: mapping policy x core count x idle C-state "
               "(die theta-max [C], x264 @ fmax) ==\n\n";

  // The ablation server is the proposed design (east-west channels), i.e.
  // the same config `server_config_for` builds for it at this pitch.
  const floorplan::Floorplan floorplan = floorplan::make_xeon_e5_floorplan();
  const auto& bench = workload::find_benchmark("x264");

  const mapping::ProposedPolicy proposed;
  const mapping::BalancingPolicy balancing;
  const mapping::InletFirstPolicy inlet;
  const mapping::ClusteredPolicy clustered;
  const std::vector<const mapping::MappingPolicy*> policies{
      &proposed, &balancing, &inlet, &clustered};
  const std::vector<power::CState> idles{power::CState::kPoll,
                                         power::CState::kC1E};

  // Enumerate every cell in print order, fan the solves out, then print.
  std::vector<core::SolveRequest> requests;
  for (const power::CState idle : idles) {
    for (const mapping::MappingPolicy* policy : policies) {
      for (int nc = 2; nc <= 7; ++nc) {
        mapping::MappingContext ctx;
        ctx.floorplan = &floorplan;
        ctx.orientation = thermosyphon::Orientation::kEastWest;
        ctx.idle_state = idle;
        ctx.cores_needed = nc;
        requests.push_back(
            {&bench, {nc, 2, 3.2}, policy->select_cores(ctx), idle});
      }
    }
  }
  const std::vector<core::SimulationResult> sims =
      core::run_parallel_solves(core::Approach::kProposed, cell, requests);

  std::size_t next = 0;
  for (const power::CState idle : idles) {
    std::cout << "idle state: " << power::to_string(idle) << "\n";
    std::vector<std::string> header{"policy"};
    for (int nc = 2; nc <= 7; ++nc) {
      header.push_back(std::to_string(nc) + " cores");
    }
    util::TablePrinter table(header);
    for (const mapping::MappingPolicy* policy : policies) {
      std::vector<std::string> row{policy->name()};
      for (int nc = 2; nc <= 7; ++nc) {
        row.push_back(util::TablePrinter::fmt(sims[next++].die.max_c, 1));
      }
      table.add_row(std::move(row));
    }
    table.print(std::cout);
    std::cout << '\n';
  }

  std::cout << "expected shape: under POLL the proposed policy matches the\n"
               "balancing baseline (it degenerates to corner-first); under\n"
               "deep idle states it is the coolest at every core count, and\n"
               "the clustered/inlet-first placements are the hottest.\n";
  return 0;
}
