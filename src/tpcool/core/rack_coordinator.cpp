#include "tpcool/core/rack_coordinator.hpp"

#include <memory>

#include "tpcool/core/parallel.hpp"
#include "tpcool/core/solve_cache.hpp"
#include "tpcool/util/error.hpp"

namespace tpcool::core {

namespace {

/// One server per chunk: each rack slot scans independently.
constexpr std::size_t kRackGrain = 1;

}  // namespace

RackCoordinator::RackCoordinator(Config config) : config_(std::move(config)) {
  TPCOOL_REQUIRE(!config_.supply_candidates_c.empty(),
                 "no supply-temperature candidates");
}

RackPlan RackCoordinator::plan(const std::vector<std::string>& benchmarks) {
  TPCOOL_REQUIRE(!benchmarks.empty(), "rack plan needs at least one server");
  const double design_flow = server_config_for(config_.approach,
                                               config_.cell_size_m)
                                 .operating_point.water_flow_kg_h;

  // Decide serially: a decision depends only on (approach, benchmark,
  // QoS), so one pipeline's scheduler serves the whole rack.
  ApproachPipeline pipeline(config_.approach, config_.cell_size_m);
  RackPlan plan;
  plan.servers.resize(benchmarks.size());
  for (std::size_t i = 0; i < benchmarks.size(); ++i) {
    plan.servers[i].benchmark = benchmarks[i];
    plan.servers[i].decision = pipeline.scheduler().schedule(
        workload::find_benchmark(benchmarks[i]), config_.qos);
  }
  SolveCache& cache = *SolveCache::global();
  const auto solve_at = [&](const ServerPlan& sp, double t_w) {
    const ScheduleDecision& d = sp.decision;
    return cached_solve(cache, config_.approach, config_.cell_size_m,
                        {.water_flow_kg_h = design_flow, .water_inlet_c = t_w},
                        workload::find_benchmark(sp.benchmark),
                        d.point.config, d.cores, d.idle_state);
  };

  // Per-server phase, embarrassingly parallel across the rack: find the
  // highest feasible supply temperature (candidates scanned descending).
  // An infeasible server throws; parallel_map rethrows the first one in
  // rack order, matching the serial scan.
  plan.servers = parallel_map<ServerPlan>(
      benchmarks.size(), kRackGrain, [](std::size_t chunk) { return chunk; },
      [&](std::size_t&, std::size_t i) {
        ServerPlan sp = plan.servers[i];
        for (const double t_w : config_.supply_candidates_c) {
          const SolveCache::ResultPtr sim = solve_at(sp, t_w);
          // Feasibility is the TCASE limit; partial channel dry-out over
          // the dead east area of the die is expected at load and harmless.
          if (sim->tcase_c <= config_.tcase_limit_c) {
            sp.max_supply_temp_c = t_w;
            sp.package_power_w = sim->total_power_w;
            return sp;
          }
        }
        TPCOOL_REQUIRE(false, "server '" + sp.benchmark +
                                  "' infeasible at every candidate supply "
                                  "temperature");
        return sp;
      });

  // Shared loop: the rack setpoint is the minimum per-server maximum.
  std::vector<cooling::ServerDemand> demands;
  demands.reserve(plan.servers.size());
  for (const ServerPlan& sp : plan.servers) {
    demands.push_back({sp.package_power_w, sp.max_supply_temp_c, design_flow});
  }
  plan.cooling = cooling::solve_rack_cooling(demands, config_.chiller);

  // Report each server's hot spot at the shared setpoint — again parallel;
  // the binding server (max supply == setpoint) is a cache hit from the
  // scan above.
  const std::vector<double> die_max = parallel_map<double>(
      plan.servers.size(), kRackGrain, [](std::size_t chunk) { return chunk; },
      [&](std::size_t&, std::size_t i) {
        return solve_at(plan.servers[i], plan.cooling.supply_temp_c)->die.max_c;
      });
  for (std::size_t i = 0; i < plan.servers.size(); ++i) {
    plan.servers[i].die_max_c = die_max[i];
  }
  return plan;
}

}  // namespace tpcool::core
