/// \file experiment_scaling.cpp
/// \brief Experiment-engine scaling bench: wall time of the parallel
///        experiment runners vs thread count, emitted as machine-readable
///        JSON (threads-vs-time).
///
/// Produces BENCH_experiment.json (override with --json PATH) with one
/// entry per (experiment, thread count): best wall time over N repeats,
/// plus the solve-cache miss count ("iterations", i.e. coupled solves
/// actually executed) and hit count.  Miss/hit counts are deterministic
/// and machine-independent — the engine's fixed-chunk fan-out runs the
/// same solves at any thread count — so they gate algorithmic regressions
/// (a lost cache hit, a duplicated solve) even on noisy CI runners; times
/// catch constant-factor ones.  CI runs
/// `experiment_scaling --fast --json BENCH_experiment.json`, uploads the
/// file, and gates merges via scripts/check_bench_regression.py against
/// ci/bench_baseline_experiment.json.
///
/// With --cache-file the bench also exercises the persistence layer:
///  1. the snapshot at PATH (if any) is loaded into the global cache;
///  2. every experiment runs once at the top thread count *without*
///     clearing — the `<case>_warm_tN` rows.  On a rerun against an
///     existing snapshot they report 0 misses and near-zero solve time;
///     on the first run they are cold and double as the snapshot builder;
///  3. the union of all experiments' entries is saved back to PATH
///     (atomically), then reloaded into a fresh cache and compared digest
///     for digest — the save→load round-trip smoke (mismatch exits 1);
///  4. the usual cold, baseline-gated cases run last (each repeat clears
///     the cache, so they measure real solves regardless of the snapshot).
/// Warm rows are informational: they are absent from the baseline file, so
/// the regression gate only NOTEs them.
///
/// Flags:
///   --fast           coarse grids + thread sweep {1, 2} (the CI config)
///   --threads N      highest thread count in the sweep (default: hardware)
///   --json PATH      output path (default BENCH_experiment.json)
///   --repeats N      timing repeats per case (default 2, best-of)
///   --cache-file P   solve-cache snapshot: load, warm-replay, save, verify
///   --trace-file P   telemetry: Chrome trace + metrics JSON at exit (TRACING.md)

#include <chrono>
#include <cstdint>
#include <cstdlib>
#include <fstream>
#include <functional>
#include <iostream>
#include <string>
#include <vector>

#include "tpcool/core/experiment.hpp"
#include "tpcool/core/parallel.hpp"
#include "tpcool/core/rack_coordinator.hpp"
#include "tpcool/core/solve_cache.hpp"
#include "tpcool/mapping/exhaustive.hpp"
#include "tpcool/materials/refrigerant.hpp"
#include "tpcool/thermosyphon/design_optimizer.hpp"
#include "tpcool/util/table.hpp"
#include "tpcool/util/telemetry.hpp"

namespace {

using namespace tpcool;
using Clock = std::chrono::steady_clock;

struct CaseResult {
  std::string name;
  std::size_t threads = 0;
  double best_ms = 0.0;
  std::size_t solves = 0;  ///< Cache misses = coupled solves executed.
  std::size_t hits = 0;    ///< Cache hits = solves deduplicated away.
};

double ms_since(Clock::time_point start) {
  return std::chrono::duration<double, std::milli>(Clock::now() - start)
      .count();
}

/// Best-of-N timing of one experiment at one thread count.  Each repeat
/// starts from an empty cache so it measures real solves, not replays.
template <typename Body>
CaseResult run_case(const std::string& name, std::size_t threads, int repeats,
                    Body&& body) {
  util::ThreadPool::set_global_thread_count(threads);
  CaseResult result{name + "_t" + std::to_string(threads), threads, 0.0, 0, 0};
  for (int rep = 0; rep < repeats; ++rep) {
    core::SolveCache::global()->clear();
    const auto start = Clock::now();
    body();
    const double elapsed = ms_since(start);
    const core::SolveCache::Stats stats = core::SolveCache::global()->stats();
    if (rep == 0 || elapsed < result.best_ms) {
      result.best_ms = elapsed;
      result.solves = stats.misses;
      result.hits = stats.hits;
    }
  }
  return result;
}

/// One timed run WITHOUT clearing the cache; stats are deltas, so a
/// snapshot-warmed cache shows up as 0 solves.
template <typename Body>
CaseResult run_warm_case(const std::string& name, std::size_t threads,
                         Body&& body) {
  util::ThreadPool::set_global_thread_count(threads);
  const core::SolveCache::Stats before = core::SolveCache::global()->stats();
  const auto start = Clock::now();
  body();
  const double elapsed = ms_since(start);
  const core::SolveCache::Stats after = core::SolveCache::global()->stats();
  return CaseResult{name + "_warm_t" + std::to_string(threads), threads,
                    elapsed, after.misses - before.misses,
                    after.hits - before.hits};
}

/// Design-optimizer sweep sized for the scaling bench: a reduced search
/// space on the oracle's coarse grid, with cached, scope-keyed solves so
/// snapshot warmth applies.  The TCASE limit is relaxed — this bench
/// measures the engine, not design feasibility on a coarse grid.
void run_design_opt_sweep(double cell_size_m) {
  const auto evaluate = [cell_size_m](
                            const thermosyphon::ThermosyphonDesign& design,
                            const thermosyphon::OperatingPoint& op) {
    core::ServerConfig config;
    config.stack.cell_size_m = cell_size_m;
    config.design = design;
    config.design.evaporator =
        core::default_evaporator_geometry(design.evaporator.orientation);
    config.operating_point = op;
    core::ServerModel server(std::move(config));
    std::string scope = "design_opt:";
    scope += std::to_string(static_cast<int>(design.evaporator.orientation));
    scope.push_back(';');
    scope += design.refrigerant->name();
    scope.push_back(';');
    core::append_key_bits(scope, design.filling_ratio);
    core::append_key_bits(scope, cell_size_m);
    server.enable_solve_cache(core::SolveCache::global(), std::move(scope));
    const core::SimulationResult sim = server.simulate(
        workload::worst_case_benchmark(), {8, 2, 3.2},
        {1, 2, 3, 4, 5, 6, 7, 8}, power::CState::kPoll);
    thermosyphon::DesignEvaluation eval;
    eval.tcase_c = sim.tcase_c;
    eval.die_max_c = sim.die.max_c;
    eval.die_grad_c_per_mm = sim.die.grad_max_c_per_mm;
    // Per the design_space_exploration example: only die-threatening
    // dry-out counts (channels over the dead east area dry harmlessly).
    eval.dryout = sim.die.max_c > 95.0;
    eval.loop_pressure_pa =
        design.refrigerant->saturation_pressure_pa(sim.syphon.t_sat_c);
    return eval;
  };

  thermosyphon::DesignSearchSpace space;
  space.refrigerants = {&materials::r236fa(), &materials::r245fa()};
  space.filling_ratios = {0.45, 0.55, 0.65};
  space.water_temps_c = {40.0, 35.0, 30.0};
  space.water_flows_kg_h = {4.0, 7.0};
  space.tcase_limit_c = 100.0;
  space.max_loop_pressure_pa = 5.0e6;
  (void)thermosyphon::optimize_design(space, evaluate);
}

void write_json(const std::string& path,
                const std::vector<CaseResult>& cases) {
  std::ofstream os(path);
  if (!os) {
    std::cerr << "cannot open " << path << " for writing\n";
    std::exit(1);
  }
  os << "{\n  \"schema\": \"tpcool-experiment-bench-v1\",\n  \"cases\": [\n";
  for (std::size_t i = 0; i < cases.size(); ++i) {
    const CaseResult& c = cases[i];
    os << "    {\"name\": \"" << c.name << "\", \"threads\": " << c.threads
       << ", \"solve_ms\": " << c.best_ms << ", \"iterations\": " << c.solves
       << ", \"hits\": " << c.hits << "}"
       << (i + 1 < cases.size() ? "," : "") << "\n";
  }
  os << "  ]\n}\n";
}

}  // namespace

int main(int argc, char** argv) {
  bool fast = false;
  int repeats = 2;
  std::size_t max_threads = util::ThreadPool::default_thread_count();
  std::string json_path = "BENCH_experiment.json";
  std::string cache_file;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg == "--fast") {
      fast = true;
    } else if (arg == "--json" && i + 1 < argc) {
      json_path = argv[++i];
    } else if (arg == "--repeats" && i + 1 < argc) {
      repeats = std::max(1, std::atoi(argv[++i]));
    } else if (arg == "--threads" && i + 1 < argc) {
      max_threads = static_cast<std::size_t>(
          std::max(1, std::atoi(argv[++i])));
    } else if (arg == "--cache-file" && i + 1 < argc) {
      cache_file = argv[++i];
    } else if (arg == "--trace-file" && i + 1 < argc) {
      util::Telemetry::arm_process_trace(argv[++i]);
    } else {
      std::cerr << "usage: experiment_scaling [--fast] [--threads N] "
                   "[--json PATH] [--repeats N] [--cache-file PATH] "
                   "[--trace-file PATH]\n";
      return 2;
    }
  }

  // Thread sweep: doubling up to the cap. --fast pins {1, 2} so CI numbers
  // are comparable across runners.
  std::vector<std::size_t> thread_counts{1};
  const std::size_t cap = fast ? std::min<std::size_t>(2, max_threads)
                               : max_threads;
  for (std::size_t t = 2; t <= cap; t *= 2) thread_counts.push_back(t);

  // Grids mirror each experiment's --fast pitch in its dedicated bench.
  const double fig6_cell = fast ? 1.5e-3 : 1.25e-3;
  const double table2_cell = fast ? 1.75e-3 : 1.25e-3;
  const double oracle_cell = 2.0e-3;
  const double rack_cell = 2.0e-3;
  const double design_cell = 2.0e-3;

  // The experiment set, shared by the warm-replay and cold sweeps.
  struct Experiment {
    std::string name;
    std::function<void()> body;
  };
  const std::vector<Experiment> experiments{
      {"fig6",
       [&] {
         core::ExperimentOptions options;
         options.cell_size_m = fig6_cell;
         (void)core::run_fig6_scenarios(options);
       }},
      {"table2",
       [&] {
         core::ExperimentOptions options;
         options.cell_size_m = table2_cell;
         options.max_benchmarks = 3;
         (void)core::run_table2(options);
       }},
      {"oracle70",
       [&] {
         const auto& bench = workload::find_benchmark("x264");
         const workload::Configuration config{4, 2, 3.2};
         const auto subsets =
             mapping::core_subsets(floorplan::make_xeon_e5_floorplan(), 4);
         (void)core::evaluate_placements_parallel(
             core::Approach::kProposed, oracle_cell, bench, config,
             power::CState::kC1E, subsets, /*grain=*/1,
             core::SolveCache::global());
       }},
      {"rack3",
       [&] {
         core::RackCoordinator::Config config;
         config.qos = workload::QoSRequirement{2.0};
         config.cell_size_m = rack_cell;
         (void)core::RackCoordinator(config).plan(
             {"x264", "canneal", "swaptions"});
       }},
      {"design_opt", [&] { run_design_opt_sweep(design_cell); }},
  };

  std::vector<CaseResult> cases;

  // Snapshot phase: load (if present), warm-replay every experiment at the
  // top thread count without clearing, save the union, verify round-trip.
  if (!cache_file.empty()) {
    bool loaded = false;
    try {
      core::SolveCache::global()->load(cache_file);
      loaded = true;
    } catch (const core::SnapshotError& error) {
      std::cerr << "starting cold (" << error.what() << ")\n";
    }
    for (const Experiment& experiment : experiments) {
      cases.push_back(run_warm_case(experiment.name, cap, experiment.body));
    }
    core::SolveCache::global()->save(cache_file);
    const std::uint64_t saved_digest =
        core::SolveCache::global()->content_digest();
    core::SolveCache reloaded(core::SolveCache::global()->capacity());
    reloaded.load(cache_file);
    if (reloaded.content_digest() != saved_digest) {
      std::cerr << "solve-cache snapshot round-trip FAILED: digest mismatch "
                   "after save+load of "
                << cache_file << "\n";
      return 1;
    }
    std::cout << "solve-cache snapshot " << cache_file << ": "
              << (loaded ? "loaded warm, " : "started cold, ") << "saved "
              << core::SolveCache::global()->stats().size
              << " entries, round-trip OK\n";
  }

  // Cold, baseline-gated sweep.
  for (const std::size_t threads : thread_counts) {
    for (const Experiment& experiment : experiments) {
      cases.push_back(
          run_case(experiment.name, threads, repeats, experiment.body));
    }
  }
  util::ThreadPool::set_global_thread_count(0);

  write_json(json_path, cases);

  util::TablePrinter table({"case", "threads", "best ms", "solves", "hits"});
  for (const CaseResult& c : cases) {
    table.add_row({c.name, std::to_string(c.threads),
                   util::TablePrinter::fmt(c.best_ms, 1),
                   std::to_string(c.solves), std::to_string(c.hits)});
  }
  table.print(std::cout);
  std::cout << "\nwrote " << json_path << "\n";
  return 0;
}
