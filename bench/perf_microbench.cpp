/// \file perf_microbench.cpp
/// \brief google-benchmark microbenchmarks for the numerical substrates:
///        steady-state thermal solves vs grid resolution, thermosyphon
///        solves, the full coupled server simulation, and the fleet's
///        per-job hot path (memoized scheduling, solve-cache hits).

#include <benchmark/benchmark.h>

#include <random>
#include <vector>

#include "tpcool/core/parallel.hpp"
#include "tpcool/core/pipelines.hpp"
#include "tpcool/core/scheduler.hpp"
#include "tpcool/core/server.hpp"
#include "tpcool/core/solve_cache.hpp"
#include "tpcool/mapping/config_select.hpp"
#include "tpcool/util/stencil_operator.hpp"

namespace {

using namespace tpcool;

core::ServerConfig config_with_cell(double cell_m) {
  core::ServerConfig config;
  config.stack.cell_size_m = cell_m;
  config.design.evaporator = core::default_evaporator_geometry(
      thermosyphon::Orientation::kEastWest);
  return config;
}

/// Steady-state solve (including boundary assembly) vs grid resolution.
void BM_ThermalSteadySolve(benchmark::State& state) {
  const double cell = 1e-5 * static_cast<double>(state.range(0));
  thermal::PackageStackConfig stack_config;
  stack_config.cell_size_m = cell;
  thermal::ThermalModel model(thermal::make_package_stack(stack_config));
  model.set_top_boundary_uniform(1.2e4, 40.0);
  util::Grid2D<double> power(model.nx(), model.ny(), 0.0);
  power(model.nx() / 2, model.ny() / 2) = 60.0;
  model.set_power_map(power);
  for (auto _ : state) {
    benchmark::DoNotOptimize(model.solve_steady());
  }
  state.counters["cells"] = static_cast<double>(model.cell_count());
}
BENCHMARK(BM_ThermalSteadySolve)->Arg(200)->Arg(150)->Arg(100)->Arg(75)
    ->Unit(benchmark::kMillisecond);

/// One transient backward-Euler step that stays warm: after the first few
/// steps the field barely moves, so CG converges in about 0 iterations and
/// this times the per-step set-up around the solve.
void BM_ThermalTransientStep(benchmark::State& state) {
  thermal::PackageStackConfig stack_config;
  stack_config.cell_size_m = 1.5e-3;
  thermal::ThermalModel model(thermal::make_package_stack(stack_config));
  model.set_top_boundary_uniform(1.2e4, 40.0);
  model.set_power_map(util::Grid2D<double>(model.nx(), model.ny(), 0.02));
  std::vector<double> t(model.cell_count(), 40.0);
  for (auto _ : state) {
    model.step_transient(t, 0.1);
  }
  state.counters["iterations"] =
      static_cast<double>(model.last_solve_stats().iterations);
}
BENCHMARK(BM_ThermalTransientStep)->Unit(benchmark::kMillisecond);

/// One transient step whose CG iterates, at the fleet's 2 mm pitch: every
/// iteration steps the same uniform field by 50 ms after a 60 W load
/// appears at the package centre, starting CG from the old field as an
/// adaptive trial's first boundary iteration does.
void BM_ThermalTransientStepSolve(benchmark::State& state) {
  thermal::PackageStackConfig stack_config;
  stack_config.cell_size_m = 2.0e-3;
  thermal::ThermalModel model(thermal::make_package_stack(stack_config));
  model.set_top_boundary_uniform(1.2e4, 40.0);
  util::Grid2D<double> power(model.nx(), model.ny(), 0.0);
  power(model.nx() / 2, model.ny() / 2) = 60.0;
  model.set_power_map(power);
  const std::vector<double> t(model.cell_count(), 40.0);
  std::vector<double> x;
  for (auto _ : state) {
    x = t;
    model.step_transient(t, x, 0.05);
    benchmark::DoNotOptimize(x.data());
  }
  state.counters["iterations"] =
      static_cast<double>(model.last_solve_stats().iterations);
}
BENCHMARK(BM_ThermalTransientStepSolve)->Unit(benchmark::kMillisecond);

/// Thermosyphon loop + channel solve on a fixed heat map, vs grid pitch in
/// 10 µm units: 2 mm (the fleet and the transient day) and 0.75 mm (the
/// paper battery).
void BM_ThermosyphonSolve(benchmark::State& state) {
  core::ServerModel server(
      config_with_cell(1e-5 * static_cast<double>(state.range(0))));
  const thermal::StackModel& stack = server.stack();
  util::Grid2D<double> heat(stack.grid.nx, stack.grid.ny, 0.0);
  for (std::size_t iy = 0; iy < stack.grid.ny; ++iy) {
    for (std::size_t ix = 0; ix < stack.grid.nx; ++ix) {
      const auto cell = stack.grid.cell_rect(ix, iy);
      if (stack.die_region.contains(cell.center_x(), cell.center_y())) {
        heat(ix, iy) = 0.2;
      }
    }
  }
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        server.thermosyphon_model().solve(heat, server.operating_point()));
  }
}
BENCHMARK(BM_ThermosyphonSolve)->Arg(200)->Arg(75)
    ->Unit(benchmark::kMicrosecond);

/// Full coupled server simulation (the unit of every experiment).
void BM_CoupledServerSimulation(benchmark::State& state) {
  core::ServerModel server(
      config_with_cell(1e-3 * static_cast<double>(state.range(0)) / 10.0));
  const auto& bench = workload::find_benchmark("x264");
  for (auto _ : state) {
    benchmark::DoNotOptimize(server.simulate(
        bench, {4, 2, 3.2}, {5, 4, 7, 2}, power::CState::kC1));
  }
}
BENCHMARK(BM_CoupledServerSimulation)->Arg(15)->Arg(10)
    ->Unit(benchmark::kMillisecond);

/// Synthetic 7-point operator with thermal-like couplings on an
/// nx x ny x nz cell grid (the package stack is ~70x60x6 at paper pitch).
util::StencilOperator stencil_like_thermal(std::size_t nx, std::size_t ny,
                                           std::size_t nz) {
  std::mt19937 rng(7);
  std::uniform_real_distribution<double> g(0.01, 0.2);
  util::StencilOperator op(nx, ny, nz);
  for (std::size_t iz = 0; iz < nz; ++iz) {
    for (std::size_t iy = 0; iy < ny; ++iy) {
      for (std::size_t ix = 0; ix < nx; ++ix) {
        const std::size_t i = op.cell_index(ix, iy, iz);
        if (ix + 1 < nx)
          op.add_coupling(i, util::StencilBand::kXPlus, g(rng));
        if (iy + 1 < ny)
          op.add_coupling(i, util::StencilBand::kYPlus, g(rng));
        if (iz + 1 < nz)
          op.add_coupling(i, util::StencilBand::kZPlus, g(rng));
        op.add_to_diagonal(i, g(rng));
      }
    }
  }
  return op;
}

/// SpMV on the banded stencil representation (matrix-free, threaded).
void BM_SpmvStencil(benchmark::State& state) {
  const auto n = static_cast<std::size_t>(state.range(0));
  const util::StencilOperator op = stencil_like_thermal(n, n, 6);
  std::vector<double> x(op.size(), 1.0), y;
  for (auto _ : state) {
    op.multiply(x, y);
    benchmark::DoNotOptimize(y.data());
  }
  state.counters["cells"] = static_cast<double>(op.size());
}
BENCHMARK(BM_SpmvStencil)->Arg(32)->Arg(64)->Arg(128)
    ->Unit(benchmark::kMicrosecond);

/// SpMV on the same operator converted to CSR (the seed representation).
void BM_SpmvCsr(benchmark::State& state) {
  const auto n = static_cast<std::size_t>(state.range(0));
  const util::SparseMatrix m =
      stencil_like_thermal(n, n, 6).to_sparse();
  std::vector<double> x(m.size(), 1.0), y;
  for (auto _ : state) {
    m.multiply(x, y);
    benchmark::DoNotOptimize(y.data());
  }
  state.counters["cells"] = static_cast<double>(m.size());
}
BENCHMARK(BM_SpmvCsr)->Arg(32)->Arg(64)->Arg(128)
    ->Unit(benchmark::kMicrosecond);

/// Full SSOR-preconditioned CG solve on the stencil.
void BM_StencilCgSolve(benchmark::State& state) {
  const util::StencilOperator op = stencil_like_thermal(70, 60, 6);
  const std::vector<double> b(op.size(), 1.0);
  std::size_t iterations = 0;
  for (auto _ : state) {
    std::vector<double> x;
    const util::CgResult r = util::solve_cg(op, b, x, {.tolerance = 1e-8});
    iterations = r.iterations;
    benchmark::DoNotOptimize(x.data());
  }
  state.counters["iterations"] = static_cast<double>(iterations);
}
BENCHMARK(BM_StencilCgSolve)->Unit(benchmark::kMillisecond);

/// Scheduling decision only (profiling + selection + placement).
void BM_ScheduleDecision(benchmark::State& state) {
  core::ServerModel server(config_with_cell(1.5e-3));
  workload::Profiler profiler(server.power_model());
  const auto& bench = workload::find_benchmark("ferret");
  for (auto _ : state) {
    const auto profile = profiler.profile(bench, power::CState::kC1E);
    benchmark::DoNotOptimize(
        mapping::algorithm1_select(profile, workload::QoSRequirement{2.0}));
  }
}
BENCHMARK(BM_ScheduleDecision)->Unit(benchmark::kMicrosecond);

/// Scheduler::schedule once its memo holds the decision: what every fleet
/// job after the first per (benchmark, QoS) pays instead of the above.
void BM_ScheduleMemoHit(benchmark::State& state) {
  const core::Scheduler scheduler(core::Approach::kProposed);
  const auto& bench = workload::find_benchmark("ferret");
  const workload::QoSRequirement qos{2.0};
  (void)scheduler.schedule(bench, qos);
  for (auto _ : state) {
    benchmark::DoNotOptimize(scheduler.schedule(bench, qos));
  }
}
BENCHMARK(BM_ScheduleMemoHit)->Unit(benchmark::kMicrosecond);

/// One solve-cache hit through core::cached_solve at the fleet's 2 mm
/// pitch, the same key every time: `shared` = the key build + lookup,
/// `copy` = the same plus a deep copy of the four 2D maps.
void cache_hit(benchmark::State& state, bool shared) {
  core::SolveCache cache;
  const auto& bench = workload::find_benchmark("x264");
  const workload::Configuration config{4, 2, 3.2};
  const std::vector<int> cores{5, 4, 7, 2};
  const auto lookup = [&] {
    return core::cached_solve(cache, core::Approach::kProposed, 2.0e-3,
                              {.water_flow_kg_h = 7.0, .water_inlet_c = 30.0},
                              bench, config, cores, power::CState::kC1);
  };
  (void)lookup();
  for (auto _ : state) {
    if (shared) {
      benchmark::DoNotOptimize(lookup());
    } else {
      core::SimulationResult copy = *lookup();
      benchmark::DoNotOptimize(copy);
    }
  }
}
void BM_CacheHitShared(benchmark::State& state) { cache_hit(state, true); }
void BM_CacheHitCopy(benchmark::State& state) { cache_hit(state, false); }
BENCHMARK(BM_CacheHitShared)->Unit(benchmark::kMicrosecond);
BENCHMARK(BM_CacheHitCopy)->Unit(benchmark::kMicrosecond);

}  // namespace

BENCHMARK_MAIN();
