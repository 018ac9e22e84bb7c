/// \file solver_scaling.cpp
/// \brief Solver-performance trajectory bench: steady and transient thermal
///        solves vs grid resolution, emitted as machine-readable JSON.
///
/// Produces BENCH_solver.json (override with --json PATH) with one entry
/// per case: cells, best wall time over N repeats, CG iterations and the
/// thread count. CI runs `solver_scaling --fast --json BENCH_solver.json`,
/// uploads the file as an artifact and gates merges on
/// scripts/check_bench_regression.py against ci/bench_baseline.json.
///
/// Flags:
///   --fast         coarse grid only (the CI configuration)
///   --threads N    global pool size (also: TPCOOL_NUM_THREADS env); one
///                  solve runs on one thread, so times do not depend on it
///   --json PATH    output path (default BENCH_solver.json)
///   --repeats N    timing repeats per case (default 3, best-of)

#include <chrono>
#include <fstream>
#include <iostream>
#include <string>
#include <vector>

#include "bench_flags.hpp"
#include "tpcool/thermal/grid.hpp"
#include "tpcool/thermal/stack.hpp"
#include "tpcool/util/table.hpp"

namespace {

using namespace tpcool;
using Clock = std::chrono::steady_clock;

struct CaseResult {
  std::string name;
  std::size_t cells = 0;
  double best_ms = 0.0;
  std::size_t iterations = 0;
};

double ms_since(Clock::time_point start) {
  return std::chrono::duration<double, std::milli>(Clock::now() - start)
      .count();
}

thermal::ThermalModel make_model(double cell_m) {
  thermal::PackageStackConfig config;
  config.cell_size_m = cell_m;
  thermal::ThermalModel model(thermal::make_package_stack(config));
  model.set_top_boundary_uniform(1.2e4, 40.0);
  util::Grid2D<double> power(model.nx(), model.ny(), 0.0);
  power(model.nx() / 2, model.ny() / 2) = 60.0;
  model.set_power_map(power);
  return model;
}

/// Best-of-N timing of one solve configuration.
template <typename Body>
CaseResult run_case(const std::string& name, std::size_t cells, int repeats,
                    Body&& body) {
  CaseResult result{name, cells, 0.0, 0};
  for (int rep = 0; rep < repeats; ++rep) {
    const auto start = Clock::now();
    const util::CgResult stats = body();
    const double elapsed = ms_since(start);
    if (rep == 0 || elapsed < result.best_ms) {
      result.best_ms = elapsed;
      result.iterations = stats.iterations;
    }
  }
  return result;
}

void write_json(const std::string& path, std::size_t threads,
                const std::vector<CaseResult>& cases) {
  std::ofstream os(path);
  if (!os) {
    std::cerr << "cannot open " << path << " for writing\n";
    std::exit(1);
  }
  os << "{\n  \"schema\": \"tpcool-solver-bench-v1\",\n"
     << "  \"threads\": " << threads << ",\n  \"cases\": [\n";
  for (std::size_t i = 0; i < cases.size(); ++i) {
    const CaseResult& c = cases[i];
    os << "    {\"name\": \"" << c.name << "\", \"cells\": " << c.cells
       << ", \"solve_ms\": " << c.best_ms
       << ", \"iterations\": " << c.iterations << "}"
       << (i + 1 < cases.size() ? "," : "") << "\n";
  }
  os << "  ]\n}\n";
}

}  // namespace

int main(int argc, char** argv) {
  const std::size_t threads = tpcool::bench::apply_threads_flag(argc, argv);
  tpcool::bench::apply_trace_file_flag(argc, argv);
  tpcool::bench::apply_cache_file_flag(argc, argv);

  bool fast = false;
  int repeats = 3;
  std::string json_path = "BENCH_solver.json";
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg == "--fast") {
      fast = true;
    } else if (arg == "--json" && i + 1 < argc) {
      json_path = argv[++i];
    } else if (arg == "--repeats" && i + 1 < argc) {
      repeats = std::max(1, std::atoi(argv[++i]));
    } else {
      std::cerr << "usage: solver_scaling [--fast] [--threads N] "
                   "[--json PATH] [--repeats N]\n";
      return 2;
    }
  }

  // Cell pitches: the CI (--fast) leg runs the coarse grid only; the full
  // sweep adds the paper-fidelity pitch and a finer stress point.
  const std::vector<double> cells_m =
      fast ? std::vector<double>{2.0e-3, 1.5e-3}
           : std::vector<double>{2.0e-3, 1.5e-3, 1.0e-3, 0.75e-3};

  std::vector<CaseResult> cases;
  for (const double cell_m : cells_m) {
    thermal::ThermalModel model = make_model(cell_m);
    const std::string pitch =
        std::to_string(static_cast<int>(cell_m * 1e6)) + "um";

    // Cold steady solve: assembly cache populated, flat 40 °C start.
    cases.push_back(run_case(
        "steady_cold_" + pitch, model.cell_count(), repeats, [&] {
          (void)model.solve_steady();
          return model.last_solve_stats();
        }));

    // Warm steady solve: start from the converged field, perturb the power
    // map slightly — the sweep-loop pattern of experiment pipelines.
    const std::vector<double> converged = model.solve_steady();
    util::Grid2D<double> power(model.nx(), model.ny(), 0.0);
    power(model.nx() / 2, model.ny() / 2) = 66.0;
    model.set_power_map(power);
    cases.push_back(run_case(
        "steady_warm_" + pitch, model.cell_count(), repeats, [&] {
          (void)model.solve_steady(converged);
          return model.last_solve_stats();
        }));

    // One backward-Euler transient step from the converged field.
    std::vector<double> state = converged;
    cases.push_back(run_case(
        "transient_step_" + pitch, model.cell_count(), repeats, [&] {
          std::vector<double> t = state;
          model.step_transient(t, 0.1);
          return model.last_solve_stats();
        }));
  }

  write_json(json_path, threads, cases);

  tpcool::util::TablePrinter table({"case", "cells", "best ms", "iters"});
  for (const CaseResult& c : cases) {
    table.add_row({c.name, std::to_string(c.cells),
                   tpcool::util::TablePrinter::fmt(c.best_ms, 3),
                   std::to_string(c.iterations)});
  }
  table.print(std::cout);
  std::cout << "\nthreads: " << threads << "\nwrote " << json_path << "\n";
  return 0;
}
