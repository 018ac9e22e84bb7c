#include "tpcool/core/parallel.hpp"

#include "tpcool/core/pipeline_pool.hpp"

namespace tpcool::core {

std::string solve_scope(Approach approach, double cell_size_m) {
  std::string scope = "pipeline:";
  scope += std::to_string(static_cast<int>(approach));
  scope.push_back(';');
  append_key_bits(scope, cell_size_m);
  return scope;
}

SolveCache::ResultPtr cached_solve(SolveCache& cache, Approach approach,
                                   double cell_size_m,
                                   const thermosyphon::OperatingPoint& op,
                                   const workload::BenchmarkProfile& bench,
                                   const workload::Configuration& config,
                                   const std::vector<int>& cores,
                                   power::CState idle_state) {
  return cached_solve(cache, approach, cell_size_m,
                      solve_scope(approach, cell_size_m), op,
                      solve_request_key(bench, config, cores, idle_state),
                      bench, config, cores, idle_state);
}

SolveCache::ResultPtr cached_solve(
    SolveCache& cache, Approach approach, double cell_size_m,
    const std::string& scope, const thermosyphon::OperatingPoint& op,
    const std::string& request_key, const workload::BenchmarkProfile& bench,
    const workload::Configuration& config, const std::vector<int>& cores,
    power::CState idle_state) {
  return cache.get_or_compute_shared(
      solve_key(scope, op, request_key), [&] {
        const PipelinePool::Lease server =
            PipelinePool::global().checkout(approach, cell_size_m);
        server->set_operating_point(op);
        SimulationResult result =
            server->simulate(bench, config, cores, idle_state);
        result.active_cores.clear();  // the key treats the placement as a set
        return result;
      });
}

std::vector<SimulationResult> run_parallel_solves(
    Approach approach, double cell_size_m,
    const std::vector<SolveRequest>& requests) {
  for (const SolveRequest& request : requests) {
    TPCOOL_REQUIRE(request.bench != nullptr, "solve request needs a benchmark");
  }
  const thermosyphon::OperatingPoint op =
      server_config_for(approach, cell_size_m).operating_point;
  SolveCache& cache = *SolveCache::global();
  return util::parallel_map<SimulationResult>(
      requests.size(), [&](std::size_t i) {
        const SolveRequest& request = requests[i];
        SimulationResult result =
            *cached_solve(cache, approach, cell_size_m, op, *request.bench,
                          request.config, request.cores, request.idle_state);
        result.active_cores = request.cores;
        return result;
      });
}

std::vector<double> evaluate_placements_parallel(
    Approach approach, double cell_size_m,
    const workload::BenchmarkProfile& bench,
    const workload::Configuration& config, power::CState idle_state,
    const std::vector<std::vector<int>>& subsets) {
  const thermosyphon::OperatingPoint op =
      server_config_for(approach, cell_size_m).operating_point;
  SolveCache& cache = *SolveCache::global();
  return util::parallel_map<double>(subsets.size(), [&](std::size_t i) {
    return cached_solve(cache, approach, cell_size_m, op, bench, config,
                        subsets[i], idle_state)
        ->die.max_c;
  });
}

}  // namespace tpcool::core
