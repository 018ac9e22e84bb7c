// Tests for tpcool::core::ServerModel — the coupled thermosyphon + thermal
// solve: energy consistency, boundary sanity, monotone responses, the
// adaptive transient advance (peaks over the whole segment, exact landing,
// the settled stop, a segment ending on its converged steady field), the
// steady field's stop and cap, the shared (copy-free) cached_solve hit
// path, and the inexact inner solves of the fixed point held to an
// all-tight reference.
// Coarse grids keep the suite fast; the physics is resolution-stable.

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <vector>

#include "tpcool/core/experiment.hpp"
#include "tpcool/core/parallel.hpp"
#include "tpcool/core/pipelines.hpp"
#include "tpcool/core/server.hpp"
#include "tpcool/core/solve_cache.hpp"
#include "tpcool/util/error.hpp"
#include "tpcool/util/telemetry.hpp"

namespace tpcool::core {
namespace {

ServerConfig coarse_config() {
  ServerConfig config;
  config.stack.cell_size_m = 1.5e-3;
  config.design.evaporator =
      default_evaporator_geometry(thermosyphon::Orientation::kEastWest);
  config.design.filling_ratio = 0.55;
  return config;
}

class ServerTest : public ::testing::Test {
 protected:
  ServerModel server_{coarse_config()};
  const workload::BenchmarkProfile& bench_ = workload::find_benchmark("x264");
};

TEST_F(ServerTest, SimulationProducesConsistentResult) {
  const workload::Configuration config{4, 2, 3.2};
  const SimulationResult sim = server_.simulate(
      bench_, config, {5, 4, 7, 2}, power::CState::kC1);

  // Power bookkeeping.
  EXPECT_NEAR(sim.total_power_w, sim.power.total_w(), 1e-9);
  EXPECT_GT(sim.total_power_w, 30.0);
  EXPECT_LT(sim.total_power_w, 90.0);

  // Thermal sanity: die ≥ package ≥ saturation ≥ water inlet.
  EXPECT_GT(sim.die.max_c, sim.package.max_c);
  EXPECT_GT(sim.package.max_c, sim.syphon.t_sat_c);
  EXPECT_GT(sim.syphon.t_sat_c,
            server_.operating_point().water_inlet_c);

  // Almost all heat leaves through the evaporator (weak board path).
  EXPECT_NEAR(sim.syphon.q_total_w, sim.total_power_w,
              0.15 * sim.total_power_w);
  EXPECT_EQ(sim.active_cores, (std::vector<int>{5, 4, 7, 2}));
}

TEST_F(ServerTest, DieAmplifiesPackageProfile) {
  // The Fig. 2 observation: hot spots and gradients on the die are a
  // scaled-up version of those on the package.
  const workload::Configuration config{6, 2, 3.2};
  const SimulationResult sim = server_.simulate(
      bench_, config, {5, 6, 7, 1, 2, 3}, power::CState::kPoll);
  EXPECT_GT(sim.die.max_c, sim.package.max_c + 5.0);
  EXPECT_GT(sim.die.grad_max_c_per_mm, 2.0 * sim.package.grad_max_c_per_mm);
}

TEST_F(ServerTest, MorePowerMeansHotter) {
  const SimulationResult low = server_.simulate(
      bench_, {4, 2, 2.6}, {5, 4, 7, 2}, power::CState::kC1E);
  const SimulationResult high = server_.simulate(
      bench_, {4, 2, 3.2}, {5, 4, 7, 2}, power::CState::kC1E);
  EXPECT_GT(high.total_power_w, low.total_power_w);
  EXPECT_GT(high.die.max_c, low.die.max_c);
  EXPECT_GT(high.tcase_c, low.tcase_c);
}

TEST_F(ServerTest, ColderWaterCoolsEverything) {
  const workload::Configuration config{8, 2, 3.2};
  const std::vector<int> all{1, 2, 3, 4, 5, 6, 7, 8};
  server_.set_operating_point({.water_flow_kg_h = 7.0, .water_inlet_c = 30.0});
  const SimulationResult warm =
      server_.simulate(bench_, config, all, power::CState::kPoll);
  server_.set_operating_point({.water_flow_kg_h = 7.0, .water_inlet_c = 20.0});
  const SimulationResult cold =
      server_.simulate(bench_, config, all, power::CState::kPoll);
  EXPECT_GT(warm.die.max_c, cold.die.max_c);
  EXPECT_GT(warm.tcase_c, cold.tcase_c);
  EXPECT_NEAR(warm.die.max_c - cold.die.max_c, 10.0, 4.0);
}

TEST_F(ServerTest, HigherFlowNeverHurts) {
  const workload::Configuration config{8, 2, 3.2};
  const std::vector<int> all{1, 2, 3, 4, 5, 6, 7, 8};
  server_.set_operating_point({.water_flow_kg_h = 4.0, .water_inlet_c = 30.0});
  const SimulationResult slow =
      server_.simulate(bench_, config, all, power::CState::kPoll);
  server_.set_operating_point({.water_flow_kg_h = 20.0, .water_inlet_c = 30.0});
  const SimulationResult fast =
      server_.simulate(bench_, config, all, power::CState::kPoll);
  EXPECT_GE(slow.die.max_c, fast.die.max_c - 0.1);
  EXPECT_GT(slow.syphon.t_sat_c, fast.syphon.t_sat_c);
}

TEST_F(ServerTest, WorstCaseStaysUnderTcaseLimit) {
  // §VI: the design must hold TCASE ≤ 85 °C for the worst-case workload at
  // the selected operating point (7 kg/h @ 30 °C).
  const auto& worst = workload::worst_case_benchmark();
  const SimulationResult sim = server_.simulate(
      worst, {8, 2, 3.2}, {1, 2, 3, 4, 5, 6, 7, 8}, power::CState::kPoll);
  EXPECT_LE(sim.tcase_c, 85.0);
  EXPECT_LE(sim.die.max_c, 100.0);
}

TEST_F(ServerTest, MappingSizeMismatchThrows) {
  EXPECT_THROW(server_.simulate(bench_, {4, 2, 3.2}, {1, 2},
                                power::CState::kPoll),
               util::PreconditionError);
}

TEST_F(ServerTest, ExplicitPowersSimulation) {
  floorplan::UnitPowers powers{{"core1", 8.0}, {"core5", 8.0}, {"llc", 2.0},
                               {"memctrl", 5.0}, {"uncore_io", 6.0}};
  const SimulationResult sim = server_.simulate_powers(powers);
  EXPECT_NEAR(sim.total_power_w, 29.0, 1e-9);
  EXPECT_GT(sim.die.max_c, sim.syphon.t_sat_c);
}

// ---------------------------------------------------------- shared results --

/// Bitwise equality of everything a coupled steady solve fills, except the
/// placement echo.
void expect_same_solve(const SimulationResult& a, const SimulationResult& b) {
  EXPECT_EQ(a.tcase_c, b.tcase_c);
  EXPECT_EQ(a.total_power_w, b.total_power_w);
  EXPECT_EQ(a.die.max_c, b.die.max_c);
  EXPECT_EQ(a.die.avg_c, b.die.avg_c);
  EXPECT_EQ(a.die.grad_max_c_per_mm, b.die.grad_max_c_per_mm);
  EXPECT_EQ(a.package.max_c, b.package.max_c);
  EXPECT_EQ(a.power.active_cores_w, b.power.active_cores_w);
  EXPECT_EQ(a.power.idle_cores_w, b.power.idle_cores_w);
  EXPECT_EQ(a.power.mcio_w, b.power.mcio_w);
  EXPECT_EQ(a.power.llc_w, b.power.llc_w);
  EXPECT_EQ(a.syphon.t_sat_c, b.syphon.t_sat_c);
  EXPECT_EQ(a.syphon.q_total_w, b.syphon.q_total_w);
  EXPECT_EQ(a.syphon.htc_map.data(), b.syphon.htc_map.data());
  EXPECT_EQ(a.die_field_c.data(), b.die_field_c.data());
  EXPECT_EQ(a.package_field_c.data(), b.package_field_c.data());
}

TEST_F(ServerTest, AdvanceCountsTheStartFieldInItsPeaks) {
  // Full load from a uniform 40 °C: the phase ends on the field it settles
  // on, long before its end.
  server_.load(bench_, {8, 2, 3.2}, {1, 2, 3, 4, 5, 6, 7, 8},
               power::CState::kPoll);
  std::vector<double> t(server_.thermal().cell_count(), 40.0);
  const AdvanceResult heavy = server_.advance(t, 1.0e6, 0.05);
  EXPECT_LT(heavy.settled_s, 1.0e4);
  EXPECT_GT(heavy.peak_tcase_c, 45.0);

  // Then a light phase on that field, hotter than its own steady state:
  // the package only cools, so the segment's peaks over [0, D] are the
  // start field's own, bit for bit.
  server_.load(bench_, {2, 1, 2.6}, {5, 4}, power::CState::kC1);
  const PackageProbe start = server_.probe(t);
  const AdvanceResult light = server_.advance(t, 1.1, 0.05);
  EXPECT_EQ(light.peak_die_c, start.die_max_c);
  EXPECT_EQ(light.peak_tcase_c, start.tcase_c);
  EXPECT_LT(light.end_tcase_c, start.tcase_c);
  EXPECT_EQ(light.end_tcase_c, server_.probe(t).tcase_c);
  // An awkward duration is landed on exactly, in several steps.
  EXPECT_GT(light.steps, 1u);
  EXPECT_EQ(light.settled_s, 1.1);

  std::vector<double> short_field(3, 40.0);
  EXPECT_THROW(server_.advance(short_field, 1.0, 0.05),
               util::PreconditionError);
  EXPECT_THROW(server_.advance(t, 0.0, 0.05), util::PreconditionError);
  EXPECT_THROW(server_.advance(t, 1.0, 0.0), util::PreconditionError);
}

double max_cell_gap(const std::vector<double>& a,
                    const std::vector<double>& b) {
  double gap = 0.0;
  for (std::size_t i = 0; i < a.size(); ++i) {
    gap = std::max(gap, std::abs(a[i] - b[i]));
  }
  return gap;
}

TEST_F(ServerTest, SteadyFieldStopsOnItsChangeOrItsCap) {
  server_.load(bench_, {8, 2, 3.2}, {1, 2, 3, 4, 5, 6, 7, 8},
               power::CState::kPoll);
  util::Telemetry& telemetry = util::Telemetry::instance();
  telemetry.enable();
  telemetry.reset();
  const SteadyField field = server_.steady_field(60, 1e-4);
  telemetry.disable();
  const util::MetricsSnapshot snapshot = telemetry.metrics();
  telemetry.reset();
  EXPECT_TRUE(field.converged);
  EXPECT_GT(field.iterations, 1);
  EXPECT_LE(field.iterations, 60);
  EXPECT_LE(field.final_change_c, 1e-4);
  EXPECT_EQ(field.t.size(), server_.thermal().cell_count());
  // It answers no cached question, so it is no "solve".
  for (const auto& [name, value] : snapshot.counters) {
    if (name == "solve.executed") {
      EXPECT_EQ(value, 0.0);
    }
  }

  // At its cap it reports the last change, above the stop.
  const SteadyField capped = server_.steady_field(3, 1e-4);
  EXPECT_FALSE(capped.converged);
  EXPECT_EQ(capped.iterations, 3);
  EXPECT_GT(capped.final_change_c, 1e-4);

  EXPECT_THROW((void)server_.steady_field(0, 1e-4), util::PreconditionError);
  EXPECT_THROW((void)server_.steady_field(10, 0.0), util::PreconditionError);
}

TEST_F(ServerTest, SettledSegmentEndsOnItsConvergedSteadyField) {
  server_.load(bench_, {8, 2, 3.2}, {1, 2, 3, 4, 5, 6, 7, 8},
               power::CState::kPoll);
  const SteadyField steady = server_.steady_field(60, 1e-4);
  ASSERT_TRUE(steady.converged);

  // The fixed point it stands for, converged far tighter here: the
  // boundary under-relaxed (ω = 0.5) from a zero-heat seed, every solve
  // to a 1e-10 residual, until successive fields agree to 1e-9 °C.
  const thermal::StackModel& stack = server_.stack();
  util::Grid2D<double> heat(stack.grid.nx, stack.grid.ny, 0.0);
  std::vector<double> tight;
  bool converged = false;
  for (int k = 0; k < 1000 && !converged; ++k) {
    server_.set_evaporator_heat(heat);
    std::vector<double> next = server_.thermal().solve_steady(tight, 1e-10);
    const util::Grid2D<double> q = server_.evaporator_heat(next);
    for (std::size_t i = 0; i < heat.data().size(); ++i) {
      heat.data()[i] += 0.5 * (q.data()[i] - heat.data()[i]);
    }
    converged = !tight.empty() && max_cell_gap(next, tight) <= 1e-9;
    tight = std::move(next);
  }
  ASSERT_TRUE(converged);
  EXPECT_LE(max_cell_gap(steady.t, tight), 1e-3);

  // A long phase from a cold field settles on its way there and ends on
  // the steady field itself: its end TCASE and peaks are that field's.
  const PackageProbe goal = server_.probe(steady.t);
  std::vector<double> t(server_.thermal().cell_count(), 35.0);
  const AdvanceResult seg = server_.advance(t, 1.0e6, 0.05, &steady.t);
  EXPECT_TRUE(seg.settled);
  EXPECT_LT(seg.settled_s, 900.0);  // no 900 s step needed
  EXPECT_EQ(t, steady.t);
  EXPECT_EQ(seg.end_tcase_c, goal.tcase_c);
  EXPECT_EQ(seg.peak_tcase_c, goal.tcase_c);
  EXPECT_EQ(seg.peak_die_c, goal.die_max_c);

  std::vector<double> short_target(3, 40.0);
  EXPECT_THROW(server_.advance(t, 1.0, 0.05, &short_target),
               util::PreconditionError);
}

TEST(ServerCachedSolve, HitSharesTheStoredResult) {
  // cached_solve keys on the solve's inputs, with the placement as a set:
  // a permuted placement hits and hands out the stored result itself,
  // whose value is a plain cold solve on a `server_config_for` server.
  constexpr double kCell = 2.0e-3;
  SolveCache cache(8);
  const auto& bench = workload::find_benchmark("x264");
  const workload::Configuration config{4, 2, 3.2};
  const std::vector<int> order{5, 4, 7, 2};
  const std::vector<int> permuted{2, 7, 4, 5};
  const thermosyphon::OperatingPoint op =
      server_config_for(Approach::kProposed, kCell).operating_point;

  const SolveCache::ResultPtr first =
      cached_solve(cache, Approach::kProposed, kCell, op, bench, config, order,
                   power::CState::kC1);
  const SolveCache::ResultPtr again =
      cached_solve(cache, Approach::kProposed, kCell, op, bench, config,
                   permuted, power::CState::kC1);
  EXPECT_EQ(first.get(), again.get());  // a hit shares, never copies
  EXPECT_TRUE(first->active_cores.empty());
  EXPECT_EQ(cache.stats().misses, 1u);
  EXPECT_EQ(cache.stats().hits, 1u);

  ServerModel plain(server_config_for(Approach::kProposed, kCell));
  const SimulationResult direct =
      plain.simulate(bench, config, order, power::CState::kC1);
  expect_same_solve(*first, direct);
  EXPECT_EQ(direct.active_cores, order);
}

TEST(ServerCachedSolve, ParallelSolvesEchoTheRequestOrder) {
  // Two placements of one set share one entry; each returned copy still
  // echoes its own request's order.
  SolveCache& cache = *SolveCache::global();
  cache.clear();
  const auto& bench = workload::find_benchmark("x264");
  const workload::Configuration config{4, 2, 3.2};
  const std::vector<int> order{5, 4, 7, 2};
  const std::vector<int> permuted{2, 7, 4, 5};
  const std::vector<SimulationResult> sims = run_parallel_solves(
      Approach::kProposed, 2.0e-3,
      {{&bench, config, order, power::CState::kC1},
       {&bench, config, permuted, power::CState::kC1}});
  ASSERT_EQ(sims.size(), 2u);
  EXPECT_EQ(sims[0].active_cores, order);
  EXPECT_EQ(sims[1].active_cores, permuted);
  expect_same_solve(sims[0], sims[1]);
  EXPECT_EQ(cache.stats().misses, 1u);
  EXPECT_EQ(cache.stats().hits, 1u);
  cache.clear();
}

TEST(ServerFactories, ProposedAndSoaDiffer) {
  const ServerConfig proposed = server_config_for(Approach::kProposed, 1.5e-3);
  const ServerConfig soa = server_config_for(Approach::kSoaBalancing, 1.5e-3);
  EXPECT_EQ(proposed.design.evaporator.orientation,
            thermosyphon::Orientation::kEastWest);
  EXPECT_EQ(soa.design.evaporator.orientation,
            thermosyphon::Orientation::kNorthSouth);
  EXPECT_GT(proposed.design.filling_ratio, soa.design.filling_ratio);
}

TEST(ServerConfigValidation, RejectsBadCouplingIterations) {
  ServerConfig config = coarse_config();
  config.coupling_iterations = 0;
  EXPECT_THROW(ServerModel{config}, util::PreconditionError);
}

// Grid-resolution stability: metrics must not change wildly with the cell
// size (a property check on the finite-volume discretization).
TEST(ServerResolution, MetricsStableAcrossGrids) {
  const auto run = [](double cell) {
    ServerConfig config = coarse_config();
    config.stack.cell_size_m = cell;
    ServerModel server(std::move(config));
    const auto& bench = workload::find_benchmark("x264");
    return server.simulate(bench, {8, 2, 3.2}, {1, 2, 3, 4, 5, 6, 7, 8},
                           power::CState::kPoll);
  };
  const SimulationResult coarse = run(2.0e-3);
  const SimulationResult fine = run(1.0e-3);
  EXPECT_NEAR(coarse.die.max_c, fine.die.max_c, 6.0);
  EXPECT_NEAR(coarse.tcase_c, fine.tcase_c, 3.0);
  EXPECT_NEAR(coarse.syphon.t_sat_c, fine.syphon.t_sat_c, 0.5);
}

// ------------------------------------------------- inexact inner solves --

/// TCASE and die max of one coupled solve.
struct Probe {
  double tcase_c = 0.0;
  double die_max_c = 0.0;
};

/// The coupled fixed point replayed through the public accessors with every
/// inner solve at the full steady tolerance, cold: the reference the forced
/// loop in ServerModel::coupled_solve is held to.
Probe all_tight_solve(ServerModel& server,
                      const workload::BenchmarkProfile& bench,
                      const workload::Configuration& point,
                      const std::vector<int>& cores) {
  power::PackagePowerRequest req =
      server.profiler().request_for(bench, point, power::CState::kPoll);
  req.active_cores = cores;
  const floorplan::UnitPowers powers = server.power_model().unit_powers(req);
  thermal::ThermalModel& thermal = server.thermal();
  const thermal::StackModel& stack = thermal.stack();
  thermal.set_power_map(floorplan::rasterize_power(
      server.floorplan(), powers, stack.grid, stack.die_offset_x,
      stack.die_offset_y));

  // Same seed as coupled_solve: the power spread over the footprint cells.
  const auto in_footprint = [&](std::size_t ix, std::size_t iy) {
    const floorplan::Rect cell = stack.grid.cell_rect(ix, iy);
    return stack.evaporator_region.contains(cell.center_x(), cell.center_y());
  };
  util::Grid2D<double> heat(stack.grid.nx, stack.grid.ny, 0.0);
  double cells = 0.0;
  for (std::size_t iy = 0; iy < stack.grid.ny; ++iy) {
    for (std::size_t ix = 0; ix < stack.grid.nx; ++ix) {
      if (in_footprint(ix, iy)) cells += 1.0;
    }
  }
  for (std::size_t iy = 0; iy < stack.grid.ny; ++iy) {
    for (std::size_t ix = 0; ix < stack.grid.nx; ++ix) {
      if (in_footprint(ix, iy))
        heat(ix, iy) = floorplan::total_power(powers) / cells;
    }
  }

  std::vector<double> t;
  for (int it = 0; it < server.config().coupling_iterations; ++it) {
    const thermosyphon::ThermosyphonState syphon =
        server.thermosyphon_model().solve(heat, server.operating_point());
    thermal.set_top_boundary({syphon.htc_map, syphon.fluid_temp_map});
    t = thermal.solve_steady(t);  // kSteadyTolerance on every iterate
    heat = thermal.top_heat_flow_map_w(t);
    for (double& q : heat.data()) q = std::max(q, 0.0);
  }

  const floorplan::Rect package_region{0.0, 0.0, stack.grid.width(),
                                       stack.grid.height()};
  return {.tcase_c = thermal::case_temperature(
              thermal.layer_field(t, stack.ihs_layer), stack.grid,
              package_region),
          .die_max_c = thermal::compute_metrics(
                           thermal.layer_field(t, stack.die_layer),
                           stack.grid, stack.die_region)
                           .max_c};
}

/// Largest |TCASE| or |die max| gap between the library's cold coupled
/// solve and the all-tight reference over the coupling probes, at
/// `iterations` outer iterations on the 2 mm grid.
double worst_gap_to_all_tight(int iterations) {
  ServerConfig config = server_config_for(Approach::kProposed, 2.0e-3);
  config.reuse_thermal_state = false;
  config.coupling_iterations = iterations;
  ServerModel server(std::move(config));
  const workload::Configuration point{4, 2, 3.2};  // 4 cores, 8 threads
  const std::vector<int> cores{1, 2, 3, 4};
  double worst = 0.0;
  for (const char* name :
       {"x264", "canneal", "blackscholes", "streamcluster"}) {
    const workload::BenchmarkProfile& bench = workload::find_benchmark(name);
    const SimulationResult forced =
        server.simulate(bench, point, cores, power::CState::kPoll);
    // The returned field is always solved to the full tolerance.
    EXPECT_LE(server.thermal().last_solve_stats().residual,
              thermal::ThermalModel::kSteadyTolerance)
        << name;
    const Probe tight = all_tight_solve(server, bench, point, cores);
    worst = std::max({worst, std::abs(forced.tcase_c - tight.tcase_c),
                      std::abs(forced.die.max_c - tight.die_max_c)});
  }
  return worst;
}

TEST(ServerInexactInnerSolves, DefaultIterationsStayAtTheAllTightAnswer) {
  // The k=4 truncation error itself is ~0.45 °C at this pitch.
  EXPECT_LT(worst_gap_to_all_tight(4), 2e-3);
}

TEST(ServerInexactInnerSolves, ConvergedReferenceIsUnchanged) {
  // perf's coupling_error_c reference runs 40 outer iterations; the
  // forcing must leave it a converged reference.
  EXPECT_LT(worst_gap_to_all_tight(40), 1e-5);
}

TEST(ServerEnergyBalance, Table2BatteryAt2mmBalances) {
  // Every solve of the battery records |P - Q_top - Q_bottom| / P into the
  // solve.energy_imbalance histogram while telemetry is on.
  SolveCache::global()->clear();
  util::Telemetry& telemetry = util::Telemetry::instance();
  telemetry.enable();
  telemetry.reset();
  const std::vector<Table2Row> rows = run_table2({.cell_size_m = 2.0e-3});
  telemetry.disable();
  const util::MetricsSnapshot snapshot = telemetry.metrics();
  telemetry.reset();
  ASSERT_FALSE(rows.empty());

  double executed = 0.0;
  for (const auto& [name, value] : snapshot.counters) {
    if (name == "solve.executed") executed = value;
  }
  const util::MetricsSnapshot::Histogram* imbalance = nullptr;
  for (const auto& [name, histogram] : snapshot.histograms) {
    if (name == "solve.energy_imbalance") imbalance = &histogram;
  }
  ASSERT_NE(imbalance, nullptr);
  EXPECT_GT(executed, 0.0);
  EXPECT_EQ(static_cast<double>(imbalance->count), executed);
  EXPECT_LE(imbalance->max, 1e-6);
}

}  // namespace
}  // namespace tpcool::core
