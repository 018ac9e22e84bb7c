/// \file ablation_oracle.cpp
/// \brief Verification ablation: how close is the proposed O(1) mapping
///        heuristic to the thermally optimal placement found by exhaustive
///        search over all C(8, Nc) core subsets (each evaluated through the
///        full coupled simulation)?
///
/// The subset sweep fans out over the thread pool (`TPCOOL_NUM_THREADS`)
/// through the shared solve cache; the per-policy costs afterwards are cache hits
/// because every policy's placement is one of the enumerated subsets.

#include <iostream>
#include <string>

#include "tpcool/core/parallel.hpp"
#include "tpcool/core/solve_cache.hpp"
#include "tpcool/mapping/balancing.hpp"
#include "tpcool/mapping/clustered.hpp"
#include "tpcool/mapping/exhaustive.hpp"
#include "tpcool/mapping/proposed.hpp"
#include "tpcool/util/table.hpp"


int main(int argc, char** argv) {
  using namespace tpcool;
  double cell = 1.5e-3;  // the oracle runs 28..70 coupled solves per row
  if (argc > 1 && std::string(argv[1]) == "--fast") cell = 2.0e-3;

  std::cout << "== Ablation: proposed heuristic vs exhaustive oracle "
               "(die theta-max [C], x264, C1E idles) ==\n\n";

  // The ablation server is the proposed design; solving every policy cost
  // through the approach's solve scope lets it hit the oracle's entries.
  const core::ServerModel server(
      core::server_config_for(core::Approach::kProposed, cell));
  const auto& bench = workload::find_benchmark("x264");

  util::TablePrinter table({"cores", "oracle best", "proposed", "gap",
                            "balancing[9]", "clustered", "subsets"});
  for (const int nc : {2, 3, 4, 5}) {
    const workload::Configuration cfg{nc, 2, 3.2};
    const auto cost_of = [&](const std::vector<int>& cores) {
      return core::cached_solve(*core::SolveCache::global(),
                                core::Approach::kProposed, cell,
                                server.operating_point(), bench, cfg, cores,
                                power::CState::kC1E)
          ->die.max_c;
    };

    mapping::ExhaustivePolicy oracle(
        [&](const std::vector<std::vector<int>>& subsets) {
          return core::evaluate_placements_parallel(
              core::Approach::kProposed, cell, bench, cfg,
              power::CState::kC1E, subsets);
        });
    mapping::MappingContext ctx;
    ctx.floorplan = &server.floorplan();
    ctx.orientation = server.design().evaporator.orientation;
    ctx.idle_state = power::CState::kC1E;
    ctx.cores_needed = nc;

    (void)oracle.select_cores(ctx);
    const double best = oracle.best_cost();
    const double proposed = cost_of(mapping::ProposedPolicy().select_cores(ctx));
    const double balancing =
        cost_of(mapping::BalancingPolicy().select_cores(ctx));
    const double clustered =
        cost_of(mapping::ClusteredPolicy().select_cores(ctx));

    table.add_row({std::to_string(nc), util::TablePrinter::fmt(best, 2),
                   util::TablePrinter::fmt(proposed, 2),
                   util::TablePrinter::fmt(proposed - best, 2),
                   util::TablePrinter::fmt(balancing, 2),
                   util::TablePrinter::fmt(clustered, 2),
                   std::to_string(oracle.evaluations())});
  }
  table.print(std::cout);

  std::cout << "\nexpected shape: the proposed heuristic tracks "
               "within ~2 C of the oracle at every\ncore count, while the clustered "
               "placement trails by several degrees.\n";
  return 0;
}
