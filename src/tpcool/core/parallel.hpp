#pragma once
/// \file parallel.hpp
/// \brief Deterministic parallel fan-out for independent experiment solves.
///
/// One solve runs on one thread; parallelism is across solves.  This layer
/// fans out the many independent ServerModel solves an experiment issues
/// (Table II's approach × QoS × benchmark grid, Fig. 6 scenarios, the
/// oracle's subset enumeration, rack supply-temperature scans) over the
/// global util::ThreadPool through `util::parallel_map`, one task per
/// solve.  A `parallel_map` called from inside another one's body finds the
/// pool busy and runs its tasks serially, in index order.
///
/// Determinism discipline:
///  - Results land in a pre-sized vector by task index: result order is
///    the serial order regardless of which thread ran what.
///  - Every solve goes through `cached_solve`: its key is built from the
///    solve's inputs alone, and a miss runs a cold solve on a server lent
///    by the PipelinePool, so a cached value is a pure function of its key
///    and cache races are unobservable.  Scheduling decisions are made
///    serially on a `Scheduler`, before the fan-out.
/// Together: any thread count, including TPCOOL_NUM_THREADS=1, produces
/// bit-identical results.

#include <cstddef>
#include <string>
#include <vector>

#include "tpcool/core/pipelines.hpp"
#include "tpcool/core/solve_cache.hpp"
#include "tpcool/util/parallel_map.hpp"

namespace tpcool::core {

/// Cache scope prefix for a `server_config_for` server (see `solve_key`):
/// approach and grid pitch fully determine its ServerConfig.
[[nodiscard]] std::string solve_scope(Approach approach, double cell_size_m);

/// The coupled solve of an `Approach` server built at `cell_size_m`, run at
/// `op`, served from `cache` under `solve_key(solve_scope(...), ...)`.  A
/// miss checks a server out of the global PipelinePool, sets `op` and
/// solves cold; a hit touches no server.  The key treats the placement
/// as a set, so the shared result's `active_cores` is empty.
[[nodiscard]] SolveCache::ResultPtr cached_solve(
    SolveCache& cache, Approach approach, double cell_size_m,
    const thermosyphon::OperatingPoint& op,
    const workload::BenchmarkProfile& bench,
    const workload::Configuration& config, const std::vector<int>& cores,
    power::CState idle_state);

/// The same solve with the key's two fixed pieces prebuilt: `scope` must
/// be `solve_scope(approach, cell_size_m)` and `request_key`
/// `solve_request_key(bench, config, cores, idle_state)`.  A caller that
/// asks one request at several operating points builds them once.  The
/// overload above builds both and forwards here, so the key bytes and the
/// miss path are the same.
[[nodiscard]] SolveCache::ResultPtr cached_solve(
    SolveCache& cache, Approach approach, double cell_size_m,
    const std::string& scope, const thermosyphon::OperatingPoint& op,
    const std::string& request_key, const workload::BenchmarkProfile& bench,
    const workload::Configuration& config, const std::vector<int>& cores,
    power::CState idle_state);

/// One independent coupled-solve request against an `Approach` server.
struct SolveRequest {
  const workload::BenchmarkProfile* bench = nullptr;
  workload::Configuration config;
  std::vector<int> cores;
  power::CState idle_state = power::CState::kPoll;
};

/// Run every request against an `Approach` server built at `cell_size_m`
/// at its design operating point, one task per request on the global pool,
/// memoized in the global SolveCache.  Results are returned in request
/// order, with `active_cores` echoing each request's order, and are
/// bit-identical for any thread count.
[[nodiscard]] std::vector<SimulationResult> run_parallel_solves(
    Approach approach, double cell_size_m,
    const std::vector<SolveRequest>& requests);

/// Batch placement evaluator for mapping::ExhaustivePolicy: evaluates all
/// subsets (die θmax) through parallel solves on an `Approach` server,
/// cached in the global SolveCache, one task per subset.
[[nodiscard]] std::vector<double> evaluate_placements_parallel(
    Approach approach, double cell_size_m,
    const workload::BenchmarkProfile& bench,
    const workload::Configuration& config, power::CState idle_state,
    const std::vector<std::vector<int>>& subsets);

}  // namespace tpcool::core
