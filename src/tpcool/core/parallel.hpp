#pragma once
/// \file parallel.hpp
/// \brief Deterministic parallel fan-out for independent experiment solves.
///
/// One solve runs on one thread; parallelism is across solves.  This layer
/// fans out the many independent ServerModel solves an experiment issues
/// (Table II's approach × QoS × benchmark grid, Fig. 6 scenarios, the
/// oracle's subset enumeration, rack supply-temperature scans) over the
/// global util::ThreadPool.  A `parallel_map` nested inside another one
/// (RackCoordinator::plan inside a fleet engine) finds the pool busy and
/// runs its chunks serially, with the same boundaries.
///
/// Determinism discipline:
///  - Tasks are split into chunks on fixed boundaries derived only from
///    (count, grain) — never from the thread count.
///  - Each chunk builds its own context (ServerModel/ApproachPipeline), so
///    no mutable state is shared across chunks; within a chunk, tasks run
///    in index order.
///  - Results land in a pre-sized vector by task index: result order is
///    the serial order regardless of which thread ran what.
///  - Shared SolveCache values are pure functions of their key (cold-start
///    solves, see ServerModel::enable_solve_cache), so cache races are
///    unobservable.
/// Together: any thread count, including TPCOOL_NUM_THREADS=1, produces
/// bit-identical results.

#include <cstddef>
#include <memory>
#include <string>
#include <vector>

#include "tpcool/core/pipelines.hpp"
#include "tpcool/core/solve_cache.hpp"
#include "tpcool/util/parallel_map.hpp"

namespace tpcool::core {

/// The generic deterministic fan-out engine (see util/parallel_map.hpp for
/// the chunking and determinism contract).  Re-exported here because the
/// experiment runners and their tests spell it `core::parallel_map`.
using util::parallel_map;

/// Cache scope prefix for a pipeline-built server (see
/// ServerModel::enable_solve_cache): approach and grid pitch fully
/// determine the ServerConfig that `server_config_for` builds.
[[nodiscard]] std::string solve_scope(Approach approach, double cell_size_m);

/// One independent coupled-solve request against a pipeline server.
struct SolveRequest {
  const workload::BenchmarkProfile* bench = nullptr;
  workload::Configuration config;
  std::vector<int> cores;
  power::CState idle_state = power::CState::kPoll;
};

/// Run every request against an `Approach` server built at `cell_size_m`,
/// fanned out over the global pool with `grain` requests per context and
/// memoized in `cache` (pass the global cache unless isolating a sweep).
/// Results are returned in request order and are bit-identical for any
/// thread count.
[[nodiscard]] std::vector<SimulationResult> run_parallel_solves(
    Approach approach, double cell_size_m,
    const std::vector<SolveRequest>& requests, std::size_t grain,
    const std::shared_ptr<SolveCache>& cache);

/// One scheduler-level request: run Algorithm 1 (or the SoA selection) and
/// the coupled simulation for a benchmark under a QoS level.
struct ScheduleRequest {
  const workload::BenchmarkProfile* bench = nullptr;
  workload::QoSRequirement qos;
};

/// Parallel counterpart of `Scheduler::run` over a request list; same
/// determinism contract as `run_parallel_solves`.
[[nodiscard]] std::vector<SimulationResult> run_parallel_schedules(
    Approach approach, double cell_size_m,
    const std::vector<ScheduleRequest>& requests, std::size_t grain,
    const std::shared_ptr<SolveCache>& cache);

/// Batch placement evaluator for mapping::ExhaustivePolicy: evaluates all
/// subsets (die θmax) through parallel cached solves on an `Approach`
/// server.  `grain` subsets share one context.
[[nodiscard]] std::vector<double> evaluate_placements_parallel(
    Approach approach, double cell_size_m,
    const workload::BenchmarkProfile& bench,
    const workload::Configuration& config, power::CState idle_state,
    const std::vector<std::vector<int>>& subsets, std::size_t grain,
    const std::shared_ptr<SolveCache>& cache);

}  // namespace tpcool::core
