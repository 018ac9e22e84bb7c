// Tests for the parallel experiment engine: PipelinePool checkout/reuse
// semantics, parallel_map determinism and error propagation, cold-start
// purity of cached solves, and the headline contract — experiment results
// bit-identical at 1, 2, and N threads (run_fig3/run_table1,
// run_fig6_scenarios, optimize_design, RackCoordinator::plan), for cold
// vs snapshot-warmed caches, and for pooled vs unpooled pipelines.

#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <cstdio>
#include <stdexcept>
#include <string>
#include <vector>

#include "tpcool/core/experiment.hpp"
#include "tpcool/core/parallel.hpp"
#include "tpcool/core/pipeline_pool.hpp"
#include "tpcool/core/rack_coordinator.hpp"
#include "tpcool/core/solve_cache.hpp"
#include "tpcool/thermosyphon/design_optimizer.hpp"
#include "tpcool/util/error.hpp"
#include "tpcool/util/thread_pool.hpp"

namespace tpcool::core {
namespace {

// Coarse grid: these tests assert determinism, not physics fidelity.
constexpr double kCell = 2.0e-3;

/// Every experiment below runs once per thread count; the fixture restores
/// the default pool and empties the shared cache so runs are independent.
class ParallelEngineTest : public ::testing::Test {
 protected:
  void TearDown() override {
    util::ThreadPool::set_global_thread_count(0);
    SolveCache::global()->clear();
    PipelinePool::global().clear();  // no parked state between tests
  }
};

// ----------------------------------------------------------- parallel_map --

TEST_F(ParallelEngineTest, ParallelMapPreservesTaskOrder) {
  for (const std::size_t threads : {1u, 4u}) {
    util::ThreadPool::set_global_thread_count(threads);
    const std::vector<int> out = parallel_map<int>(
        100, 7, [](std::size_t chunk) { return static_cast<int>(chunk); },
        [](int& chunk, std::size_t i) {
          return chunk * 1000 + static_cast<int>(i);
        });
    ASSERT_EQ(out.size(), 100u);
    for (std::size_t i = 0; i < out.size(); ++i) {
      EXPECT_EQ(out[i], static_cast<int>(i / 7) * 1000 + static_cast<int>(i))
          << "threads=" << threads << " i=" << i;
    }
  }
}

TEST_F(ParallelEngineTest, ParallelMapRethrowsFirstChunkError) {
  util::ThreadPool::set_global_thread_count(4);
  const auto run = [] {
    return parallel_map<int>(
        10, 1, [](std::size_t chunk) { return chunk; },
        [](std::size_t& chunk, std::size_t) -> int {
          if (chunk == 3 || chunk == 7) {
            throw std::runtime_error("chunk " + std::to_string(chunk));
          }
          return 0;
        });
  };
  try {
    (void)run();
    FAIL() << "expected an exception";
  } catch (const std::runtime_error& error) {
    EXPECT_STREQ(error.what(), "chunk 3");  // chunk order, not finish order
  }
}

// ----------------------------------------------------- cold-start purity --

TEST_F(ParallelEngineTest, CachedSolvesAreIndependentOfHistory) {
  const auto& bench = workload::find_benchmark("x264");
  const workload::Configuration config{4, 2, 3.2};
  const std::vector<int> cores_a = fig6_scenario_cores(1);
  const std::vector<int> cores_b = fig6_scenario_cores(3);

  // Server 1 solves A then B; server 2 solves only B. With separate caches
  // nothing is shared, so equality means a cached solve's value does not
  // depend on what the server solved before it.
  ApproachPipeline p1(Approach::kProposed, kCell);
  p1.server().enable_solve_cache(std::make_shared<SolveCache>(),
                                 solve_scope(Approach::kProposed, kCell));
  (void)p1.server().simulate(bench, config, cores_a, power::CState::kPoll);
  const SimulationResult b_after_a =
      p1.server().simulate(bench, config, cores_b, power::CState::kPoll);

  ApproachPipeline p2(Approach::kProposed, kCell);
  p2.server().enable_solve_cache(std::make_shared<SolveCache>(),
                                 solve_scope(Approach::kProposed, kCell));
  const SimulationResult b_cold =
      p2.server().simulate(bench, config, cores_b, power::CState::kPoll);

  EXPECT_EQ(b_after_a.die.max_c, b_cold.die.max_c);
  EXPECT_EQ(b_after_a.die.avg_c, b_cold.die.avg_c);
  EXPECT_EQ(b_after_a.die.grad_max_c_per_mm, b_cold.die.grad_max_c_per_mm);
  EXPECT_EQ(b_after_a.tcase_c, b_cold.tcase_c);
  ASSERT_TRUE(b_after_a.die_field_c.same_shape(b_cold.die_field_c));
  EXPECT_EQ(b_after_a.die_field_c.data(), b_cold.die_field_c.data());
}

// ------------------------------------------- bit-identity across threads --

void expect_rows_identical(const std::vector<Fig6Row>& a,
                           const std::vector<Fig6Row>& b,
                           std::size_t threads) {
  ASSERT_EQ(a.size(), b.size());
  for (std::size_t i = 0; i < a.size(); ++i) {
    SCOPED_TRACE("threads=" + std::to_string(threads) + " row=" +
                 std::to_string(i));
    EXPECT_EQ(a[i].scenario, b[i].scenario);
    EXPECT_EQ(a[i].idle_state, b[i].idle_state);
    EXPECT_EQ(a[i].cores, b[i].cores);
    // Bitwise, not near: the parallel engine's contract is exactness.
    EXPECT_EQ(a[i].die.max_c, b[i].die.max_c);
    EXPECT_EQ(a[i].die.avg_c, b[i].die.avg_c);
    EXPECT_EQ(a[i].die.grad_max_c_per_mm, b[i].die.grad_max_c_per_mm);
    EXPECT_EQ(a[i].die.hotspot_cells, b[i].die.hotspot_cells);
  }
}

TEST_F(ParallelEngineTest, Fig6BitIdenticalAcrossThreadCounts) {
  ExperimentOptions options;
  options.cell_size_m = kCell;

  util::ThreadPool::set_global_thread_count(1);
  SolveCache::global()->clear();
  const std::vector<Fig6Row> serial = run_fig6_scenarios(options);

  for (const std::size_t threads : {2u, 4u}) {
    util::ThreadPool::set_global_thread_count(threads);
    SolveCache::global()->clear();  // recompute, don't replay stored bits
    expect_rows_identical(serial, run_fig6_scenarios(options), threads);
  }
}

TEST_F(ParallelEngineTest, Fig6BitIdenticalColdVsSnapshotWarmedCache) {
  // A snapshot-warmed run must reproduce a cold run bit for bit, serving
  // every solve from the loaded entries (0 misses).
  ExperimentOptions options;
  options.cell_size_m = kCell;
  util::ThreadPool::set_global_thread_count(2);
  SolveCache::global()->clear();
  const std::vector<Fig6Row> cold = run_fig6_scenarios(options);

  const std::string path = ::testing::TempDir() + "tpcool_fig6_snap.bin";
  SolveCache::global()->save(path);
  SolveCache::global()->clear();
  SolveCache::global()->load(path);
  const std::vector<Fig6Row> warm = run_fig6_scenarios(options);
  const SolveCache::Stats stats = SolveCache::global()->stats();
  EXPECT_EQ(stats.misses, 0u);
  EXPECT_EQ(stats.hits, 6u);
  expect_rows_identical(cold, warm, 2);
  std::remove(path.c_str());
}

TEST_F(ParallelEngineTest, Fig3BitIdenticalAcrossThreadCounts) {
  const ExperimentOptions options;  // all 13 benchmarks — no solves, cheap
  util::ThreadPool::set_global_thread_count(1);
  const std::vector<Fig3Row> serial = run_fig3(options);
  ASSERT_EQ(serial.size(), workload::parsec_benchmarks().size());

  for (const std::size_t threads : {2u, 4u}) {
    util::ThreadPool::set_global_thread_count(threads);
    const std::vector<Fig3Row> parallel = run_fig3(options);
    ASSERT_EQ(parallel.size(), serial.size());
    for (std::size_t i = 0; i < serial.size(); ++i) {
      SCOPED_TRACE("threads=" + std::to_string(threads) + " row=" +
                   std::to_string(i));
      EXPECT_EQ(parallel[i].benchmark, serial[i].benchmark);
      EXPECT_EQ(parallel[i].normalized_time, serial[i].normalized_time);
      EXPECT_EQ(parallel[i].meets_2x_at_2_4, serial[i].meets_2x_at_2_4);
    }
  }
}

TEST_F(ParallelEngineTest, Table1BitIdenticalAcrossThreadCounts) {
  util::ThreadPool::set_global_thread_count(1);
  const std::vector<Table1Row> serial = run_table1();
  ASSERT_EQ(serial.size(), power::all_cstates().size());

  for (const std::size_t threads : {2u, 4u}) {
    util::ThreadPool::set_global_thread_count(threads);
    const std::vector<Table1Row> parallel = run_table1();
    ASSERT_EQ(parallel.size(), serial.size());
    for (std::size_t i = 0; i < serial.size(); ++i) {
      SCOPED_TRACE("threads=" + std::to_string(threads) + " row=" +
                   std::to_string(i));
      EXPECT_EQ(parallel[i].state, serial[i].state);
      EXPECT_EQ(parallel[i].latency_us, serial[i].latency_us);
      EXPECT_EQ(parallel[i].power_all8_w, serial[i].power_all8_w);
    }
  }
}

TEST_F(ParallelEngineTest, DesignOptimizerBitIdenticalAcrossThreadCounts) {
  // Analytic evaluator (no thermal solves): a pure, reentrant function of
  // the candidate, so the test isolates the optimizer's own fan-out.
  const auto make_evaluator = [] {
    return thermosyphon::DesignEvaluator(
        [](const thermosyphon::ThermosyphonDesign& design,
           const thermosyphon::OperatingPoint& op) {
          thermosyphon::DesignEvaluation eval;
          const double orientation_penalty =
              design.evaporator.orientation ==
                      thermosyphon::Orientation::kEastWest
                  ? 0.0
                  : 2.0;
          eval.die_max_c = 60.0 + orientation_penalty +
                           20.0 * std::fabs(design.filling_ratio - 0.55) +
                           0.4 * op.water_inlet_c -
                           0.2 * op.water_flow_kg_h;
          eval.die_grad_c_per_mm = 1.0 + design.filling_ratio;
          eval.tcase_c = eval.die_max_c - 5.0;
          eval.dryout = false;
          eval.loop_pressure_pa =
              design.refrigerant->saturation_pressure_pa(30.0);
          return eval;
        });
  };

  util::ThreadPool::set_global_thread_count(1);
  const thermosyphon::DesignResult serial = thermosyphon::optimize_design(
      thermosyphon::DesignSearchSpace{},
      thermosyphon::DesignEvaluatorFactory(make_evaluator));

  for (const std::size_t threads : {2u, 4u}) {
    util::ThreadPool::set_global_thread_count(threads);
    const thermosyphon::DesignResult parallel = thermosyphon::optimize_design(
        thermosyphon::DesignSearchSpace{},
        thermosyphon::DesignEvaluatorFactory(make_evaluator));
    SCOPED_TRACE("threads=" + std::to_string(threads));
    EXPECT_EQ(parallel.design.evaporator.orientation,
              serial.design.evaporator.orientation);
    EXPECT_EQ(parallel.design.refrigerant, serial.design.refrigerant);
    EXPECT_EQ(parallel.design.filling_ratio, serial.design.filling_ratio);
    EXPECT_EQ(parallel.op.water_inlet_c, serial.op.water_inlet_c);
    EXPECT_EQ(parallel.op.water_flow_kg_h, serial.op.water_flow_kg_h);
    EXPECT_EQ(parallel.eval.die_max_c, serial.eval.die_max_c);
    EXPECT_EQ(parallel.eval.tcase_c, serial.eval.tcase_c);
    ASSERT_EQ(parallel.records.size(), serial.records.size());
    for (std::size_t i = 0; i < serial.records.size(); ++i) {
      EXPECT_EQ(parallel.records[i].eval.die_max_c,
                serial.records[i].eval.die_max_c);
      EXPECT_EQ(parallel.records[i].feasible, serial.records[i].feasible);
      EXPECT_EQ(parallel.records[i].op.water_inlet_c,
                serial.records[i].op.water_inlet_c);
    }
  }
}

// ------------------------------------------------------------ PipelinePool --

TEST_F(ParallelEngineTest, PipelinePoolChecksOutConstructsAndReuses) {
  PipelinePool pool;
  // Purity requirement: pooled reuse is only bit-identical with a cache.
  EXPECT_THROW((void)pool.checkout(Approach::kProposed, kCell, nullptr),
               util::PreconditionError);

  const auto cache = std::make_shared<SolveCache>();
  {
    const PipelinePool::Lease lease =
        pool.checkout(Approach::kProposed, kCell, cache);
    EXPECT_EQ(lease->approach(), Approach::kProposed);
    EXPECT_TRUE(lease->server().solve_cache_enabled());
    const PipelinePool::Stats stats = pool.stats();
    EXPECT_EQ(stats.constructions, 1u);
    EXPECT_EQ(stats.reuses, 0u);
    EXPECT_EQ(stats.idle, 0u);  // checked out, not parked
  }
  EXPECT_EQ(pool.stats().idle, 1u);  // lease returned its pipeline

  {
    const PipelinePool::Lease lease =
        pool.checkout(Approach::kProposed, kCell, cache);
    EXPECT_EQ(pool.stats().reuses, 1u);
    EXPECT_EQ(pool.stats().constructions, 1u);
    // A different (approach, cell size) key never shares pipelines.
    const PipelinePool::Lease other =
        pool.checkout(Approach::kSoaBalancing, kCell, cache);
    EXPECT_EQ(other->approach(), Approach::kSoaBalancing);
    EXPECT_EQ(pool.stats().constructions, 2u);
  }

  // A previous user's operating point must not leak through a reuse: the
  // solve call sites that simulate "at the constructed default" (fig6,
  // the oracle sweeps) would otherwise inherit a rack scan's last water
  // temperature, timing-dependently.
  const thermosyphon::OperatingPoint default_op =
      server_config_for(Approach::kProposed, kCell).operating_point;
  {
    PipelinePool::Lease lease =
        pool.checkout(Approach::kProposed, kCell, cache);
    lease->server().set_operating_point(
        {.water_flow_kg_h = 1.0, .water_inlet_c = 15.0});
  }
  {
    const PipelinePool::Lease lease =
        pool.checkout(Approach::kProposed, kCell, cache);
    EXPECT_EQ(lease->server().operating_point().water_flow_kg_h,
              default_op.water_flow_kg_h);
    EXPECT_EQ(lease->server().operating_point().water_inlet_c,
              default_op.water_inlet_c);
  }

  pool.clear();  // drops the idle pipelines, keeps the counters
  EXPECT_EQ(pool.stats().idle, 0u);
  EXPECT_EQ(pool.stats().constructions, 2u);
  EXPECT_EQ(pool.stats().reuses, 3u);

  // An unpooled lease owns its pipeline outright and parks nowhere.
  {
    const PipelinePool::Lease lease =
        PipelinePool::unpooled(Approach::kProposed, kCell);
    EXPECT_FALSE(lease->server().solve_cache_enabled());
  }
  EXPECT_EQ(pool.stats().idle, 0u);
}

TEST_F(ParallelEngineTest, RackPlanReusesPooledPipelines) {
  // The satellite claim: pooling measurably cuts per-chunk constructions.
  // Single-threaded chunks run in order and return their lease before the
  // next chunk begins, so the counters are exact: one construction serves
  // all 6 checkouts (two parallel phases x 3 servers) of the first plan,
  // and the second plan constructs nothing at all.
  util::ThreadPool::set_global_thread_count(1);
  SolveCache::global()->clear();
  PipelinePool::global().clear();
  RackCoordinator::Config config;
  config.cell_size_m = kCell;
  const std::vector<std::string> racks{"x264", "canneal", "swaptions"};

  const PipelinePool::Stats before = PipelinePool::global().stats();
  (void)RackCoordinator(config).plan(racks);
  const PipelinePool::Stats mid = PipelinePool::global().stats();
  EXPECT_EQ(mid.constructions - before.constructions, 1u);
  EXPECT_EQ(mid.reuses - before.reuses, 5u);

  (void)RackCoordinator(config).plan(racks);
  const PipelinePool::Stats after = PipelinePool::global().stats();
  EXPECT_EQ(after.constructions, mid.constructions);
  EXPECT_EQ(after.reuses - mid.reuses, 6u);
}

TEST_F(ParallelEngineTest, RackPlanPooledBitIdenticalToUnpooled) {
  // The coordinator now runs exclusively on pooled pipelines; this is the
  // reference it must match: a fresh pipeline and a fresh private cache
  // per server (every solve cold and pure), serial, no pool anywhere.
  RackCoordinator::Config config;
  config.cell_size_m = kCell;
  const std::vector<std::string> racks{"x264", "canneal", "swaptions"};
  const double design_flow =
      server_config_for(config.approach, config.cell_size_m)
          .operating_point.water_flow_kg_h;

  RackPlan unpooled;
  for (const std::string& name : racks) {
    ApproachPipeline pipeline(config.approach, config.cell_size_m);
    pipeline.server().enable_solve_cache(
        std::make_shared<SolveCache>(),
        solve_scope(config.approach, config.cell_size_m));
    const workload::BenchmarkProfile& bench = workload::find_benchmark(name);
    ServerPlan sp;
    sp.benchmark = name;
    sp.decision = pipeline.scheduler().schedule(bench, config.qos);
    for (const double t_w : config.supply_candidates_c) {
      pipeline.server().set_operating_point(
          {.water_flow_kg_h = design_flow, .water_inlet_c = t_w});
      const SimulationResult sim = pipeline.server().simulate(
          bench, sp.decision.point.config, sp.decision.cores,
          sp.decision.idle_state);
      if (sim.tcase_c <= config.tcase_limit_c) {
        sp.max_supply_temp_c = t_w;
        sp.package_power_w = sim.total_power_w;
        break;
      }
    }
    unpooled.servers.push_back(std::move(sp));
  }
  std::vector<cooling::ServerDemand> demands;
  for (const ServerPlan& sp : unpooled.servers) {
    demands.push_back({sp.package_power_w, sp.max_supply_temp_c, design_flow});
  }
  unpooled.cooling = cooling::solve_rack_cooling(demands, config.chiller);
  for (ServerPlan& sp : unpooled.servers) {
    ApproachPipeline pipeline(config.approach, config.cell_size_m);
    pipeline.server().enable_solve_cache(
        std::make_shared<SolveCache>(),
        solve_scope(config.approach, config.cell_size_m));
    pipeline.server().set_operating_point(
        {.water_flow_kg_h = design_flow,
         .water_inlet_c = unpooled.cooling.supply_temp_c});
    sp.die_max_c = pipeline.server()
                       .simulate(workload::find_benchmark(sp.benchmark),
                                 sp.decision.point.config, sp.decision.cores,
                                 sp.decision.idle_state)
                       .die.max_c;
  }

  for (const std::size_t threads : {1u, 4u}) {
    util::ThreadPool::set_global_thread_count(threads);
    SolveCache::global()->clear();
    const RackPlan pooled = RackCoordinator(config).plan(racks);
    ASSERT_EQ(pooled.servers.size(), unpooled.servers.size());
    for (std::size_t i = 0; i < unpooled.servers.size(); ++i) {
      SCOPED_TRACE("threads=" + std::to_string(threads) + " server=" +
                   std::to_string(i));
      EXPECT_EQ(pooled.servers[i].benchmark, unpooled.servers[i].benchmark);
      // Bitwise: pooled reuse must be unobservable in the results.
      EXPECT_EQ(pooled.servers[i].max_supply_temp_c,
                unpooled.servers[i].max_supply_temp_c);
      EXPECT_EQ(pooled.servers[i].package_power_w,
                unpooled.servers[i].package_power_w);
      EXPECT_EQ(pooled.servers[i].die_max_c, unpooled.servers[i].die_max_c);
    }
    EXPECT_EQ(pooled.cooling.supply_temp_c, unpooled.cooling.supply_temp_c);
    EXPECT_EQ(pooled.cooling.return_temp_c, unpooled.cooling.return_temp_c);
    EXPECT_EQ(pooled.cooling.chiller_electrical_w,
              unpooled.cooling.chiller_electrical_w);
  }
}

TEST_F(ParallelEngineTest, RackPlanBitIdenticalAcrossThreadCounts) {
  RackCoordinator::Config config;
  config.qos = workload::QoSRequirement{2.0};
  config.cell_size_m = kCell;
  const std::vector<std::string> racks{"x264", "canneal", "swaptions"};

  util::ThreadPool::set_global_thread_count(1);
  SolveCache::global()->clear();
  const RackPlan serial = RackCoordinator(config).plan(racks);

  for (const std::size_t threads : {2u, 4u}) {
    util::ThreadPool::set_global_thread_count(threads);
    SolveCache::global()->clear();
    const RackPlan parallel = RackCoordinator(config).plan(racks);
    ASSERT_EQ(parallel.servers.size(), serial.servers.size());
    for (std::size_t i = 0; i < serial.servers.size(); ++i) {
      SCOPED_TRACE("threads=" + std::to_string(threads) + " server=" +
                   std::to_string(i));
      EXPECT_EQ(parallel.servers[i].benchmark, serial.servers[i].benchmark);
      EXPECT_EQ(parallel.servers[i].max_supply_temp_c,
                serial.servers[i].max_supply_temp_c);
      EXPECT_EQ(parallel.servers[i].package_power_w,
                serial.servers[i].package_power_w);
      EXPECT_EQ(parallel.servers[i].die_max_c, serial.servers[i].die_max_c);
    }
    EXPECT_EQ(parallel.cooling.supply_temp_c, serial.cooling.supply_temp_c);
    EXPECT_EQ(parallel.cooling.return_temp_c, serial.cooling.return_temp_c);
    EXPECT_EQ(parallel.cooling.chiller_electrical_w,
              serial.cooling.chiller_electrical_w);
  }
}

}  // namespace
}  // namespace tpcool::core
