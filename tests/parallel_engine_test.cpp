// Tests for the parallel experiment engine: the solve key's golden bytes,
// PipelinePool checkout/reuse semantics and that only cache misses check
// servers out, parallel_map determinism, nesting and error propagation,
// the history independence of pooled servers' solves, and the headline
// contract — experiment results bit-identical at 1, 2, and N threads
// (run_fig3/run_table1, run_fig6_scenarios, optimize_design) and for cold
// vs snapshot-warmed caches.

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
#include "tpcool/core/solve_cache.hpp"
#include "tpcool/datacenter/streaming.hpp"
#include "tpcool/datacenter/workload_gen.hpp"
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
    const std::vector<int> out = util::parallel_map<int>(
        100, [](std::size_t i) { return static_cast<int>(i * i); });
    ASSERT_EQ(out.size(), 100u);
    for (std::size_t i = 0; i < out.size(); ++i) {
      EXPECT_EQ(out[i], static_cast<int>(i * i))
          << "threads=" << threads << " i=" << i;
    }
  }
}

TEST_F(ParallelEngineTest, ParallelMapRethrowsFirstTaskError) {
  util::ThreadPool::set_global_thread_count(4);
  const auto run = [] {
    return util::parallel_map<int>(10, [](std::size_t i) -> int {
      if (i == 3 || i == 7) {
        throw std::runtime_error("task " + std::to_string(i));
      }
      return 0;
    });
  };
  try {
    (void)run();
    FAIL() << "expected an exception";
  } catch (const std::runtime_error& error) {
    EXPECT_STREQ(error.what(), "task 3");  // index order, not finish order
  }
}

TEST_F(ParallelEngineTest, NestedParallelMapRunsSeriallyWithoutDeadlock) {
  // A parallel_map called from inside another one's body finds the pool
  // busy and runs its tasks serially in index order, so the nested result
  // at 4 threads is the 1-thread result.
  const auto run = [] {
    return util::parallel_map<std::vector<int>>(8, [](std::size_t i) {
      return util::parallel_map<int>(10, [i](std::size_t j) {
        return static_cast<int>(i) * 1000 + static_cast<int>(j);
      });
    });
  };
  util::ThreadPool::set_global_thread_count(1);
  const std::vector<std::vector<int>> serial = run();
  ASSERT_EQ(serial.size(), 8u);
  EXPECT_EQ(serial[5][7], 5000 + 7);
  util::ThreadPool::set_global_thread_count(4);
  EXPECT_EQ(run(), serial);
}

// ------------------------------------------------------------ solve keys --

TEST_F(ParallelEngineTest, SolveKeyMatchesTheSnapshotKeyBytes) {
  // Snapshots store these bytes, so they are pinned to a literal: any
  // change orphans every saved snapshot and needs a kSnapshotVersion bump.
  const std::string golden =
      "pipeline:0;3f60624dd2f1a9fc;401c000000000000;403e000000000000;x264;"
      "3fe0a3d70a3d70a4;3ff4000000000000;3faeb851eb851eb8;3fe3333333333333;"
      "3fd3333333333333;4000000000000000;4,2,400999999999999a;2,4,5,7,;1";
  const auto& bench = workload::find_benchmark("x264");
  const workload::Configuration config{4, 2, 3.2};
  const std::vector<int> cores{5, 4, 7, 2};
  const thermosyphon::OperatingPoint op =
      server_config_for(Approach::kProposed, kCell).operating_point;
  EXPECT_EQ(solve_key(solve_scope(Approach::kProposed, kCell), op, bench,
                      config, cores, power::CState::kC1),
            golden);
  // The same bytes from the prebuilt pieces the fleet engine reuses.
  EXPECT_EQ(solve_key(solve_scope(Approach::kProposed, kCell), op,
                      solve_request_key(bench, config, cores,
                                        power::CState::kC1)),
            golden);

  // cached_solve stores its result under exactly that key.
  SolveCache cache(4);
  (void)cached_solve(cache, Approach::kProposed, kCell, op, bench, config,
                     cores, power::CState::kC1);
  (void)cache.get_or_compute_shared(golden, [] {
    ADD_FAILURE() << "cached_solve stored under a different key";
    return SimulationResult{};
  });
  EXPECT_EQ(cache.stats().hits, 1u);
}

// --------------------------------------------------- history independence --

TEST_F(ParallelEngineTest, PipelineSolvesAreIndependentOfHistory) {
  const auto& bench = workload::find_benchmark("x264");
  const workload::Configuration config{4, 2, 3.2};
  const std::vector<int> cores_a = fig6_scenario_cores(1);
  const std::vector<int> cores_b = fig6_scenario_cores(3);

  // Server 1 solves A then B; server 2 solves only B.  Equality means a
  // `server_config_for` server's solve does not depend on what it solved
  // before, which is what lets any pooled server serve any cache miss.
  ServerModel s1(server_config_for(Approach::kProposed, kCell));
  (void)s1.simulate(bench, config, cores_a, power::CState::kPoll);
  const SimulationResult b_after_a =
      s1.simulate(bench, config, cores_b, power::CState::kPoll);

  ServerModel s2(server_config_for(Approach::kProposed, kCell));
  const SimulationResult b_cold =
      s2.simulate(bench, config, cores_b, power::CState::kPoll);

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
  const auto evaluate = [](const thermosyphon::ThermosyphonDesign& design,
                           const thermosyphon::OperatingPoint& op) {
    thermosyphon::DesignEvaluation eval;
    const double orientation_penalty =
        design.evaporator.orientation == thermosyphon::Orientation::kEastWest
            ? 0.0
            : 2.0;
    eval.die_max_c = 60.0 + orientation_penalty +
                     20.0 * std::fabs(design.filling_ratio - 0.55) +
                     0.4 * op.water_inlet_c - 0.2 * op.water_flow_kg_h;
    eval.die_grad_c_per_mm = 1.0 + design.filling_ratio;
    eval.tcase_c = eval.die_max_c - 5.0;
    eval.dryout = false;
    eval.loop_pressure_pa = design.refrigerant->saturation_pressure_pa(30.0);
    return eval;
  };

  util::ThreadPool::set_global_thread_count(1);
  const thermosyphon::DesignResult serial = thermosyphon::optimize_design(
      thermosyphon::DesignSearchSpace{}, evaluate);

  for (const std::size_t threads : {2u, 4u}) {
    util::ThreadPool::set_global_thread_count(threads);
    const thermosyphon::DesignResult parallel = thermosyphon::optimize_design(
        thermosyphon::DesignSearchSpace{}, evaluate);
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
  {
    const PipelinePool::Lease lease = pool.checkout(Approach::kProposed, kCell);
    EXPECT_EQ(lease->design().evaporator.orientation,
              thermosyphon::Orientation::kEastWest);
    const PipelinePool::Stats stats = pool.stats();
    EXPECT_EQ(stats.constructions, 1u);
    EXPECT_EQ(stats.reuses, 0u);
    EXPECT_EQ(stats.idle, 0u);  // checked out, not parked
  }
  EXPECT_EQ(pool.stats().idle, 1u);  // lease returned its server

  {
    const PipelinePool::Lease lease = pool.checkout(Approach::kProposed, kCell);
    EXPECT_EQ(pool.stats().reuses, 1u);
    EXPECT_EQ(pool.stats().constructions, 1u);
    // A different (approach, cell size) key never shares servers.
    const PipelinePool::Lease other =
        pool.checkout(Approach::kSoaBalancing, kCell);
    EXPECT_EQ(other->design().evaporator.orientation,
              thermosyphon::Orientation::kNorthSouth);
    EXPECT_EQ(pool.stats().constructions, 2u);
  }
  EXPECT_EQ(pool.stats().idle, 2u);

  pool.clear();  // drops the idle servers, keeps the counters
  EXPECT_EQ(pool.stats().idle, 0u);
  EXPECT_EQ(pool.stats().constructions, 2u);
  EXPECT_EQ(pool.stats().reuses, 1u);
}

TEST_F(ParallelEngineTest, OnlyCacheMissesCheckOutPipelines) {
  // Keys are built from the solve inputs alone, so a hit touches no
  // server: a cold run's checkouts equal its misses at any thread count,
  // and a warm rerun (all hits) leaves the pool's counters unchanged.
  const auto checkouts = [] {
    const PipelinePool::Stats stats = PipelinePool::global().stats();
    return stats.constructions + stats.reuses;
  };
  datacenter::WorkloadGenConfig gen;
  gen.seed = 5;
  gen.streams = 3;
  gen.duration_s = 4.0 * 900.0;
  gen.slot_s = 900.0;
  gen.mean_phase_slots = 2.0;
  const std::vector<workload::WorkloadTrace> streams =
      datacenter::WorkloadGenerator(gen).generate();
  const datacenter::FleetConfig fleet =
      datacenter::make_heterogeneous_fleet(2, 2, kCell);

  for (const std::size_t threads : {1u, 4u}) {
    SCOPED_TRACE("threads=" + std::to_string(threads));
    util::ThreadPool::set_global_thread_count(threads);
    SolveCache::global()->clear();
    const std::size_t before = checkouts();
    datacenter::StreamingFleetEngine(fleet, streams).run();
    const std::size_t misses = SolveCache::global()->stats().misses;
    EXPECT_GT(misses, 0u);
    EXPECT_EQ(checkouts() - before, misses);

    const PipelinePool::Stats cold = PipelinePool::global().stats();
    datacenter::StreamingFleetEngine(fleet, streams).run();
    const PipelinePool::Stats warm = PipelinePool::global().stats();
    EXPECT_EQ(SolveCache::global()->stats().misses, misses);
    EXPECT_EQ(warm.constructions, cold.constructions);
    EXPECT_EQ(warm.reuses, cold.reuses);
  }
}

}  // namespace
}  // namespace tpcool::core
