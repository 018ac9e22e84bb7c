// Tests for the adaptive-step transient path: StepController units (the
// error-estimate and step-to-boundary choosers), the backward-Euler step
// from a guess and the embedded step-doubling error step, and the
// TransientFleetEngine — exact boundary landing, steps that grow on a
// smooth phase, a day-like trace on one server, bit-identity across thread
// counts, a warm rerun that misses nothing (only the steady pass uses the
// solve cache), identical streams integrating their segments once, the
// parallel schedule against a serial evaluation of its rule, a phase
// of any length settling and returning, peak TCASE and peak die against a
// tight-tolerance reference, no boundary limit cycle on a warm burst, and
// per-stream thermal-state chaining.

#include <gtest/gtest.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <limits>
#include <string>
#include <vector>

#include "tpcool/core/pipeline_pool.hpp"
#include "tpcool/core/pipelines.hpp"
#include "tpcool/core/server.hpp"
#include "tpcool/core/solve_cache.hpp"
#include "tpcool/datacenter/transient.hpp"
#include "tpcool/thermal/grid.hpp"
#include "tpcool/thermal/stack.hpp"
#include "tpcool/thermal/step_control.hpp"
#include "tpcool/util/error.hpp"
#include "tpcool/util/telemetry.hpp"
#include "tpcool/util/thread_pool.hpp"

namespace tpcool {
namespace {

// ---------------------------------------------------------- StepController --

/// The engine's default step tolerance [°C].
constexpr double kTolerance = 0.05;

/// First step the StepController tests start from [s].
constexpr double kFirstStep = 0.5;

TEST(StepController, ValidatesConfig) {
  EXPECT_THROW((thermal::StepController{0.0, kFirstStep}),
               util::PreconditionError);
  EXPECT_THROW((thermal::StepController{-1.0, kFirstStep}),
               util::PreconditionError);
  EXPECT_THROW((thermal::StepController{std::nan(""), kFirstStep}),
               util::PreconditionError);
  EXPECT_THROW((thermal::StepController{kTolerance, 0.0}),
               util::PreconditionError);
  EXPECT_THROW((thermal::StepController{kTolerance, -1.0}),
               util::PreconditionError);
  EXPECT_THROW((thermal::StepController{kTolerance, std::nan("")}),
               util::PreconditionError);
}

TEST(StepController, FirstProposalIsTheFirstStepClamped) {
  constexpr double kFar = 1.0e9;
  EXPECT_EQ(thermal::StepController(kTolerance, 0.37).propose(kFar), 0.37);
  // Below the 1 ms floor and above the ceiling, the first step is clamped.
  EXPECT_EQ(thermal::StepController(kTolerance, 1.0e-9).propose(kFar),
            1.0e-3);
  EXPECT_EQ(thermal::StepController(kTolerance, 1.0e6).propose(kFar),
            thermal::kMaxStepS);
  EXPECT_EQ(thermal::StepController(kTolerance,
                                    std::numeric_limits<double>::infinity())
                .propose(kFar),
            thermal::kMaxStepS);
  // The step-to-boundary rule still applies to the first proposal.
  EXPECT_EQ(thermal::StepController(kTolerance, 1.0e6).propose(10.0), 10.0);
}

TEST(StepController, ProposeAppliesTheStepToBoundaryRules) {
  const thermal::StepController controller(kTolerance, kFirstStep);
  // Far from the boundary: the 0.5 s first step runs unclamped.
  EXPECT_EQ(controller.propose(10.0), 0.5);
  // Reaching the boundary: exactly the remainder (land by assignment).
  EXPECT_EQ(controller.propose(0.4), 0.4);
  EXPECT_EQ(controller.propose(0.5), 0.5);
  // Past the halfway mark: split evenly, never set up a sliver.
  EXPECT_EQ(controller.propose(0.8), 0.4);
  EXPECT_EQ(controller.propose(0.9999), 0.5 * 0.9999);
  EXPECT_THROW((void)controller.propose(0.0), util::PreconditionError);
  EXPECT_THROW((void)controller.propose(-1.0), util::PreconditionError);
}

TEST(StepController, EvaluateRunsTheDeadBeatUpdate) {
  // Far from any boundary, propose() returns the dead-beat proposal itself.
  constexpr double kFar = 1.0e9;
  thermal::StepController controller(kTolerance, kFirstStep);

  // Error at tolerance: accepted, next proposal shrinks by the 0.9 safety.
  EXPECT_TRUE(controller.evaluate(0.5, kTolerance));
  EXPECT_DOUBLE_EQ(controller.propose(kFar), 0.5 * 0.9);

  // Zero error (an equilibrated field): grows at the 4x cap.
  thermal::StepController growing(kTolerance, kFirstStep);
  EXPECT_TRUE(growing.evaluate(0.5, 0.0));
  EXPECT_DOUBLE_EQ(growing.propose(kFar), 0.5 * 4.0);

  // 4x over tolerance: rejected, retried at 0.9 * sqrt(1/4) = 0.45x.
  thermal::StepController shrinking(kTolerance, kFirstStep);
  EXPECT_FALSE(shrinking.evaluate(0.5, 4.0 * kTolerance));
  EXPECT_DOUBLE_EQ(shrinking.propose(kFar), 0.5 * 0.9 * 0.5);

  // Wildly over tolerance: the shrink factor floors at 0.1, not at min_dt.
  thermal::StepController floored(kTolerance, kFirstStep);
  EXPECT_FALSE(floored.evaluate(0.5, 1.0e9));
  EXPECT_DOUBLE_EQ(floored.propose(kFar), 0.05);

  // At the 1 ms dt floor any error is accepted (progress guarantee).
  thermal::StepController at_floor(kTolerance, kFirstStep);
  EXPECT_TRUE(at_floor.evaluate(1.0e-3, 1.0e9));
  EXPECT_DOUBLE_EQ(at_floor.propose(kFar), 1.0e-3);

  // Proposals never exceed the ceiling, however long the plateau.
  thermal::StepController capped(kTolerance, kFirstStep);
  EXPECT_TRUE(capped.evaluate(800.0, 0.0));
  EXPECT_EQ(capped.propose(kFar), thermal::kMaxStepS);
  EXPECT_EQ(thermal::kMaxStepS, 900.0);

  EXPECT_THROW((void)at_floor.evaluate(0.0, 0.0), util::PreconditionError);
  EXPECT_THROW((void)at_floor.evaluate(0.5, -1.0), util::PreconditionError);
}

TEST(StepController, AcceptedStepsLandExactlyOnAwkwardDurations) {
  // Drive the controller over durations that do not divide by any power of
  // two of the initial dt; land-by-assignment plus the half-split rule
  // must reach every boundary exactly, with no sliver steps.
  for (const double duration_s : {1.1, 0.7, 86400.0 / 7.0, 3.0 + 1e-13}) {
    SCOPED_TRACE(duration_s);
    thermal::StepController controller(kTolerance, kFirstStep);
    double sim_time_s = 0.0;
    double min_dt_s = 1.0e9;
    int steps = 0;
    while (sim_time_s < duration_s) {
      const double remaining_s = duration_s - sim_time_s;
      const double dt_s = controller.propose(remaining_s);
      // Alternate small errors so the proposal keeps moving.
      EXPECT_TRUE(controller.evaluate(
          dt_s, (steps % 2 == 0 ? 0.4 : 0.9) * kTolerance));
      sim_time_s = dt_s == remaining_s ? duration_s : sim_time_s + dt_s;
      min_dt_s = std::min(min_dt_s, dt_s);
      ++steps;
      ASSERT_LT(steps, 100000);
    }
    EXPECT_EQ(sim_time_s, duration_s);  // bitwise exact landing
    // The half-split rule keeps every step above half the 1 ms floor.
    EXPECT_GE(min_dt_s, 0.5 * 1.0e-3);
  }
}

// ------------------------------------------------------------ embedded step --

thermal::StackModel make_slab(std::size_t nx, std::size_t ny) {
  thermal::StackModel model;
  model.grid.x0 = 0.0;
  model.grid.y0 = 0.0;
  model.grid.dx = 1.0e-3;
  model.grid.dy = 1.0e-3;
  model.grid.nx = nx;
  model.grid.ny = ny;
  const auto layer = [&](const std::string& name) {
    thermal::StackLayer l;
    l.name = name;
    l.thickness_m = 1.0e-3;
    l.conductivity_w_mk = util::Grid2D<double>(nx, ny, 100.0);
    l.vol_heat_cap_j_m3k = util::Grid2D<double>(nx, ny, 2.0e6);
    return l;
  };
  model.layers.push_back(layer("bottom"));
  model.layers.push_back(layer("top"));
  model.die_layer = 0;
  model.ihs_layer = 1;
  model.top_layer = 1;
  model.die_region =
      floorplan::Rect{0.0, 0.0, static_cast<double>(nx) * 1.0e-3,
                      static_cast<double>(ny) * 1.0e-3};
  model.evaporator_region = model.die_region;
  return model;
}

TEST(EmbeddedStep, CommitsTheTwoHalfStepsAndReturnsTheirDistance) {
  thermal::ThermalModel model(make_slab(6, 6));
  model.set_top_boundary_uniform(4000.0, 30.0);
  model.set_bottom_boundary(0.0, 0.0);
  model.set_power_map(util::Grid2D<double>(6, 6, 0.2));
  const std::vector<double> t0(model.cell_count(), 30.0);
  const auto full_step = [&](double dt_s) {
    std::vector<double> full = t0;
    model.step_transient(full, dt_s);
    return full;
  };

  // The committed state is exactly the two-half-step path, and the
  // estimate is its distance to the caller's full step.
  const std::vector<double> full = full_step(0.2);
  std::vector<double> embedded = t0;
  const double error_c = model.step_transient_embedded(embedded, full, 0.2);
  std::vector<double> manual = t0;
  model.step_transient(manual, 0.1);
  model.step_transient(manual, 0.1);
  EXPECT_EQ(embedded, manual);  // bitwise
  double distance_c = 0.0;
  for (std::size_t i = 0; i < full.size(); ++i) {
    distance_c = std::max(distance_c, std::abs(full[i] - manual[i]));
  }
  EXPECT_EQ(error_c, distance_c);

  // A heating transient has a nonzero estimate, and halving dt cuts it
  // about 4x (backward Euler is first order: the step-doubling estimate
  // scales as dt^2).
  EXPECT_GT(error_c, 0.0);
  std::vector<double> halved = t0;
  const double error_half_c =
      model.step_transient_embedded(halved, full_step(0.1), 0.1);
  EXPECT_LT(error_half_c, error_c);
  EXPECT_NEAR(error_c / error_half_c, 4.0, 2.0);

  EXPECT_THROW((void)model.step_transient_embedded(embedded, full, 0.0),
               util::PreconditionError);
  EXPECT_THROW((void)model.step_transient_embedded(
                   embedded, std::vector<double>(3, 30.0), 0.2),
               util::PreconditionError);
}

TEST(EmbeddedStep, StepFromAGuessMatchesTheInPlaceStep) {
  thermal::ThermalModel model(make_slab(6, 6));
  model.set_top_boundary_uniform(4000.0, 30.0);
  model.set_bottom_boundary(0.0, 0.0);
  model.set_power_map(util::Grid2D<double>(6, 6, 0.2));
  const std::vector<double> t0(model.cell_count(), 30.0);
  std::vector<double> in_place = t0;
  model.step_transient(in_place, 0.2);

  // Starting from the old state itself is the in-place step, bitwise.
  std::vector<double> x = t0;
  model.step_transient(t0, x, 0.2);
  EXPECT_EQ(x, in_place);

  // Another guess changes only the CG path: the answer agrees to the
  // solver tolerance, and the old state is left alone.
  std::vector<double> guess(model.cell_count(), 45.0);
  model.step_transient(t0, guess, 0.2);
  EXPECT_EQ(t0, std::vector<double>(model.cell_count(), 30.0));
  for (std::size_t i = 0; i < guess.size(); ++i) {
    EXPECT_NEAR(guess[i], in_place[i], 1e-6) << "cell " << i;
  }
  EXPECT_LE(model.last_solve_stats().residual,
            thermal::ThermalModel::kStepTolerance);

  std::vector<double> short_guess(3, 30.0);
  EXPECT_THROW(model.step_transient(t0, short_guess, 0.2),
               util::PreconditionError);
  std::vector<double> short_state(3, 30.0);
  EXPECT_THROW(model.step_transient(short_state, x, 0.2),
               util::PreconditionError);
}

// ---------------------------------------------------- TransientFleetEngine --

constexpr double kCell = 2.0e-3;

class TransientEngineTest : public ::testing::Test {
 protected:
  void TearDown() override {
    util::ThreadPool::set_global_thread_count(0);
    core::SolveCache::global()->clear();
    core::PipelinePool::global().clear();
  }
};

datacenter::FleetConfig small_fleet() {
  return datacenter::make_heterogeneous_fleet(2, 2, kCell);
}

/// One proposed-design server whose only supply candidate is 30 °C water:
/// the engine as a single-server trace player.
datacenter::FleetConfig one_server_fleet() {
  datacenter::FleetConfig config =
      datacenter::make_heterogeneous_fleet(1, 1, kCell);
  config.racks[0].supply_candidates_c = {30.0};
  return config;
}

std::vector<workload::WorkloadTrace> smooth_streams() {
  // Two phases per stream with awkward durations: the engine must land on
  // 1.1, 1.8 (stream 0) and 1.1 + 0.7 interior boundaries exactly.
  return {workload::WorkloadTrace(
              {{"x264", {2.0}, 1.1}, {"canneal", {3.0}, 0.7}}),
          workload::WorkloadTrace({{"vips", {2.0}, 1.8}})};
}

TEST_F(TransientEngineTest, ValidatesEngineConfig) {
  datacenter::TransientEngineConfig bad_controller;
  bad_controller.tolerance_c = -1.0;
  EXPECT_THROW(
      datacenter::TransientFleetEngine(small_fleet(), bad_controller),
      util::PreconditionError);
}

/// Wall-clock bounds hold for optimized builds.  Unoptimized and sanitized
/// builds run the engine many times slower (a Debug ASan build takes about
/// 3 s for the 0.15 s phase below), so there they are scaled up: a hang
/// still fails.
#if !defined(NDEBUG) || defined(__SANITIZE_ADDRESS__) || \
    defined(__SANITIZE_THREAD__)
constexpr double kWallScale = 30.0;
#else
constexpr double kWallScale = 1.0;
#endif

TEST_F(TransientEngineTest, APhaseOfAnyLengthSettlesAndReturns) {
  // A valid, finite 1e12 s phase would need over 1e9 adaptive steps of the
  // largest step (900 s), but the segment ends once it settles: it returns
  // quickly, and with the same steps, peak die and end TCASE as a 1e4 s
  // phase, which settles on the same field.
  const auto play = [](double duration_s) {
    const datacenter::TransientFleetResult result =
        datacenter::TransientFleetEngine(one_server_fleet(), {})
            .run({workload::WorkloadTrace({{"x264", {2.0}, duration_s}})});
    EXPECT_EQ(result.intervals.size(), 1u);
    return result.intervals.at(0).jobs.at(0);
  };
  const auto start = std::chrono::steady_clock::now();
  const datacenter::TransientJobOutcome huge = play(1.0e12);
  EXPECT_LT(std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                          start)
                .count(),
            1.0 * kWallScale);
  const datacenter::TransientJobOutcome shorter = play(1.0e4);
  EXPECT_EQ(huge.steps, shorter.steps);
  EXPECT_EQ(huge.peak_die_c, shorter.peak_die_c);
  EXPECT_EQ(huge.end_tcase_c, shorter.end_tcase_c);
}

TEST_F(TransientEngineTest, AdaptiveStepsGrowOnASmoothPhase) {
  // A long smooth phase: the controller crosses its plateau in a handful of
  // growing steps.  A 0.5 s control period would take 360 steps; the run
  // takes fewer than half as many trials (accepted + rejected).
  const datacenter::TransientFleetResult result =
      datacenter::TransientFleetEngine(small_fleet(), {})
          .run({workload::WorkloadTrace({{"x264", {2.0}, 180.0}})});
  ASSERT_EQ(result.intervals.size(), 1u);
  EXPECT_GT(result.total_steps, 0u);
  EXPECT_LT(result.total_steps + result.total_rejected_steps, 180u);
  EXPECT_EQ(result.qos_violations, 0u);
}

TEST_F(TransientEngineTest, DailyTraceOnOneServerStaysWithinLimits) {
  // The day-like trace: every phase stays under the 85 °C
  // limit with the die hotter than the case, and the 1x interactive burst
  // (phase 1) draws more power and runs hotter than the 3x overnight batch
  // before it (phase 0).
  const datacenter::TransientFleetResult result =
      datacenter::TransientFleetEngine(one_server_fleet(), {})
          .run({workload::make_daily_trace(4.0)});
  ASSERT_EQ(result.intervals.size(), 6u);
  EXPECT_EQ(result.qos_violations, 0u);
  for (std::size_t i = 0; i < result.intervals.size(); ++i) {
    SCOPED_TRACE("phase " + std::to_string(i));
    const datacenter::TransientJobOutcome& job =
        result.intervals[i].jobs.at(0);
    EXPECT_GT(job.peak_tcase_c, 30.0);
    EXPECT_LE(job.peak_tcase_c, 85.0);
    EXPECT_GE(job.peak_die_c, job.peak_tcase_c);
    EXPECT_GT(result.steady.intervals[i].it_power_w, 20.0);
  }
  EXPECT_GT(result.steady.intervals[1].it_power_w,
            result.steady.intervals[0].it_power_w);
  EXPECT_GT(result.intervals[1].jobs[0].peak_die_c,
            result.intervals[0].jobs[0].peak_die_c);
}

TEST_F(TransientEngineTest, BitIdenticalAcrossThreadCounts) {
  const datacenter::TransientEngineConfig config;
  // A third, shorter stream splits the timeline at 0.6 s: streams 0 and 1
  // run three-segment chains, stream 2 a one-segment chain that ends early.
  std::vector<workload::WorkloadTrace> streams = smooth_streams();
  streams.push_back(workload::WorkloadTrace({{"swaptions", {2.0}, 0.6}}));

  util::ThreadPool::set_global_thread_count(1);
  core::SolveCache::global()->clear();
  const datacenter::TransientFleetResult serial =
      datacenter::TransientFleetEngine(small_fleet(), config).run(streams);
  const std::uint64_t serial_digest = datacenter::transient_digest(serial);
  ASSERT_EQ(serial.intervals.size(), 3u);
  EXPECT_EQ(serial.intervals[0].jobs.size(), 3u);
  EXPECT_EQ(serial.intervals[1].jobs.size(), 2u);
  EXPECT_EQ(serial.intervals[2].jobs.size(), 2u);

  for (const std::size_t threads : {2u, 4u}) {
    util::ThreadPool::set_global_thread_count(threads);
    core::SolveCache::global()->clear();  // recompute, don't replay bits
    SCOPED_TRACE("threads=" + std::to_string(threads));
    const datacenter::TransientFleetResult parallel =
        datacenter::TransientFleetEngine(small_fleet(), config).run(streams);
    EXPECT_EQ(datacenter::transient_digest(parallel), serial_digest);
  }
}

TEST_F(TransientEngineTest, WarmRerunMissesNothingAndCachesOnlySteadySolves) {
  // Segments are integrated directly, never looked up: a cold transient run
  // misses exactly the solves of its steady fleet pass, and a rerun on the
  // warm cache misses nothing and reproduces the cold run's bits.
  const datacenter::TransientEngineConfig config;
  util::ThreadPool::set_global_thread_count(2);
  core::SolveCache::global()->clear();
  (void)datacenter::FleetModel(small_fleet()).run(smooth_streams());
  const std::size_t steady_misses = core::SolveCache::global()->stats().misses;
  ASSERT_GT(steady_misses, 0u);

  core::SolveCache::global()->clear();
  const datacenter::TransientFleetResult cold =
      datacenter::TransientFleetEngine(small_fleet(), config)
          .run(smooth_streams());
  EXPECT_EQ(core::SolveCache::global()->stats().misses, steady_misses);

  const core::SolveCache::Stats before = core::SolveCache::global()->stats();
  const datacenter::TransientFleetResult warm =
      datacenter::TransientFleetEngine(small_fleet(), config)
          .run(smooth_streams());
  const core::SolveCache::Stats after = core::SolveCache::global()->stats();
  EXPECT_EQ(after.misses - before.misses, 0u);
  EXPECT_GT(after.hits, before.hits);
  EXPECT_EQ(datacenter::transient_digest(warm),
            datacenter::transient_digest(cold));
}

TEST_F(TransientEngineTest, IdenticalStreamsIntegrateTheirSegmentsOnce) {
  // Two copies of one stream on a one-rack fleet get the same plan, so each
  // segment of the copy has the same (start, phase, duration) key as the
  // original's: the memo integrates it once, the copy reports the same
  // outcomes, and the bits are the same at any thread count.
  const workload::WorkloadTrace stream = smooth_streams()[0];
  const std::vector<workload::WorkloadTrace> streams{stream, stream};
  std::uint64_t serial_digest = 0;
  for (const std::size_t threads : {1u, 4u}) {
    SCOPED_TRACE("threads=" + std::to_string(threads));
    util::ThreadPool::set_global_thread_count(threads);
    core::SolveCache::global()->clear();
    const core::PipelinePool::Stats before =
        core::PipelinePool::global().stats();
    const datacenter::TransientFleetResult result =
        datacenter::TransientFleetEngine(
            datacenter::make_heterogeneous_fleet(1, 2, kCell), {})
            .run(streams);
    const core::PipelinePool::Stats after =
        core::PipelinePool::global().stats();

    ASSERT_EQ(result.intervals.size(), 2u);
    for (const datacenter::TransientInterval& interval : result.intervals) {
      ASSERT_EQ(interval.jobs.size(), 2u);
      const datacenter::TransientJobOutcome& original = interval.jobs[0];
      const datacenter::TransientJobOutcome& copy = interval.jobs[1];
      EXPECT_EQ(copy.stream, 1u);
      EXPECT_EQ(copy.peak_tcase_c, original.peak_tcase_c);
      EXPECT_EQ(copy.peak_die_c, original.peak_die_c);
      EXPECT_EQ(copy.end_tcase_c, original.end_tcase_c);
      EXPECT_EQ(copy.steps, original.steps);
    }
    // One server checkout per steady miss, per phase's steady start (x264
    // and canneal), and per run, not per segment: the uniform-start first
    // segment, and the second segment twice, speculatively from x264's
    // steady field and again from the end field of the 1.1 s x264 segment,
    // which does not settle.
    const std::size_t checkouts = after.constructions + after.reuses -
                                  before.constructions - before.reuses;
    EXPECT_EQ(checkouts, core::SolveCache::global()->stats().misses + 2 + 3);
    if (threads == 1) serial_digest = datacenter::transient_digest(result);
    EXPECT_EQ(datacenter::transient_digest(result), serial_digest);
  }
}

/// The engine's result by its serial rule, one stream at a time on fresh
/// servers: each segment advances its stream's field toward its phase's
/// steady field, and ends on it once settled; a stream's field is a
/// uniform 35 °C at its start and after a move to another grid.
datacenter::TransientFleetResult serial_rule(
    const datacenter::FleetConfig& config,
    const std::vector<workload::WorkloadTrace>& streams, double tolerance_c) {
  datacenter::TransientFleetResult result;
  result.steady = datacenter::FleetModel(config).run(streams);
  result.duration_s = result.steady.duration_s;
  std::vector<std::vector<double>> fields(streams.size());
  for (const datacenter::FleetInterval& interval : result.steady.intervals) {
    datacenter::TransientInterval out;
    out.interval = interval.interval;
    out.start_s = interval.start_s;
    out.duration_s = interval.duration_s;
    for (const datacenter::JobOutcome& job : interval.jobs) {
      const datacenter::RackSpec& spec = config.racks[job.rack];
      core::ServerModel server(
          core::server_config_for(spec.approach, spec.cell_size_m));
      server.set_operating_point(
          {.water_flow_kg_h = server.operating_point().water_flow_kg_h,
           .water_inlet_c = interval.racks[job.rack].cooling.supply_temp_c});
      server.load(workload::find_benchmark(job.benchmark),
                  job.decision.point.config, job.decision.cores,
                  job.decision.idle_state);
      const core::SteadyField steady =
          server.steady_field(datacenter::kSteadyStartIterations,
                              datacenter::kSteadyStartStopC);
      std::vector<double>& t = fields[job.stream];
      if (t.size() != steady.t.size()) t.assign(steady.t.size(), 35.0);
      const core::AdvanceResult seg =
          server.advance(t, interval.duration_s, tolerance_c,
                         steady.converged ? &steady.t : nullptr);
      datacenter::TransientJobOutcome outcome;
      outcome.stream = job.stream;
      outcome.rack = job.rack;
      outcome.benchmark = job.benchmark;
      outcome.peak_tcase_c = seg.peak_tcase_c;
      outcome.peak_die_c = seg.peak_die_c;
      outcome.end_tcase_c = seg.end_tcase_c;
      outcome.steps = seg.steps;
      outcome.rejected_steps = seg.rejected_steps;
      outcome.tcase_limit_exceeded = seg.peak_tcase_c > spec.tcase_limit_c;
      if (outcome.tcase_limit_exceeded) ++result.qos_violations;
      result.peak_tcase_c = std::max(result.peak_tcase_c, seg.peak_tcase_c);
      result.total_steps += seg.steps;
      result.total_rejected_steps += seg.rejected_steps;
      out.jobs.push_back(outcome);
    }
    result.intervals.push_back(std::move(out));
  }
  return result;
}

TEST_F(TransientEngineTest, ParallelScheduleGivesTheSerialRulesBits) {
  // Stream 0's two phases last 2,400 s and settle.  Stream 1's last
  // 0.5-1 s; they split stream 0's first phase into seconds-long segments
  // that do not settle, so those run again from their predecessor's end
  // field after the speculative pass.  Any thread count gives the serial
  // rule's bits.
  const std::vector<workload::WorkloadTrace> streams{
      workload::WorkloadTrace(
          {{"x264", {1.0}, 2400.0}, {"canneal", {3.0}, 2400.0}}),
      workload::make_daily_trace(0.5)};
  const std::uint64_t serial = datacenter::transient_digest(
      serial_rule(small_fleet(), streams, kTolerance));
  for (const std::size_t threads : {1u, 2u, 4u}) {
    SCOPED_TRACE("threads=" + std::to_string(threads));
    util::ThreadPool::set_global_thread_count(threads);
    core::SolveCache::global()->clear();
    util::Telemetry& telemetry = util::Telemetry::instance();
    telemetry.enable();
    telemetry.reset();
    const datacenter::TransientFleetResult result =
        datacenter::TransientFleetEngine(small_fleet(), {}).run(streams);
    telemetry.disable();
    EXPECT_EQ(datacenter::transient_digest(result), serial);

    // Both paths ran: segments from a steady field and from an inherited
    // end field, beside the two uniform stream starts.
    std::size_t starts[3] = {0, 0, 0};
    for (const util::SpanRecord& span : telemetry.merged_spans()) {
      if (span.name != "transient.segment") continue;
      for (const auto& [key, value] : span.args) {
        if (key == "start") ++starts[static_cast<std::size_t>(value)];
      }
    }
    telemetry.reset();
    EXPECT_EQ(starts[0], 2u);
    EXPECT_GT(starts[1], 0u);
    EXPECT_GT(starts[2], 0u);
  }
}

TEST_F(TransientEngineTest, PeakTcaseTracksATightToleranceReference) {
  // The loose full steps, the converged boundary, the first step sized
  // from the field's curvature and the settled stop must not bias what is
  // reported: on a short day, every segment's peak TCASE at the default
  // step tolerance stays within 0.05 °C of a run at a 100x tighter one,
  // and its peak die within 0.1 °C (0.066 °C measured).  With a fixed
  // 0.5 s first step, a segment whose power fell took its first probe after
  // the die had already cooled, and peak die was off by up to 0.47 °C; now
  // the field at the phase switch is a segment's first probe, so no segment
  // peaks below its predecessor's end, in either run.
  const std::vector<workload::WorkloadTrace> streams{
      workload::make_daily_trace(0.5)};
  const datacenter::TransientFleetResult run =
      datacenter::TransientFleetEngine(one_server_fleet(), {}).run(streams);
  core::SolveCache::global()->clear();
  datacenter::TransientEngineConfig tight;
  tight.tolerance_c = 5e-4;
  const datacenter::TransientFleetResult reference =
      datacenter::TransientFleetEngine(one_server_fleet(), tight)
          .run(streams);

  ASSERT_EQ(run.intervals.size(), 6u);
  ASSERT_EQ(reference.intervals.size(), run.intervals.size());
  EXPECT_GT(reference.total_steps, 4 * run.total_steps);
  for (std::size_t i = 0; i < run.intervals.size(); ++i) {
    SCOPED_TRACE("phase " + std::to_string(i));
    EXPECT_NEAR(run.intervals[i].jobs.at(0).peak_tcase_c,
                reference.intervals[i].jobs.at(0).peak_tcase_c, 0.05);
    EXPECT_NEAR(run.intervals[i].jobs.at(0).peak_die_c,
                reference.intervals[i].jobs.at(0).peak_die_c, 0.1);
    if (i == 0) continue;
    for (const datacenter::TransientFleetResult* result : {&run, &reference}) {
      EXPECT_GE(result->intervals[i].jobs.at(0).peak_tcase_c,
                result->intervals[i - 1].jobs.at(0).end_tcase_c);
    }
  }
}

TEST_F(TransientEngineTest, ConvergedBoundaryKeepsAWarmBurstOffTheLimitCycle) {
  // An interactive burst on a field a batch phase warmed.  Under a
  // boundary lagged one whole step behind, the boiling HTC's flux feedback
  // re-excites the package's fast surface mode at every commit and the
  // controller locks at ~16 ms steps: this 50 s burst then takes over
  // 3,000 steps.  Converging the boundary in each trial crosses it in ~40.
  const std::vector<workload::WorkloadTrace> streams{
      workload::WorkloadTrace({{"streamcluster", {3.0}, 200.0}}),
      workload::WorkloadTrace(
          {{"streamcluster", {3.0}, 100.0}, {"x264", {1.0}, 50.0}})};
  const datacenter::TransientFleetResult result =
      datacenter::TransientFleetEngine(small_fleet(), {}).run(streams);

  const datacenter::TransientJobOutcome* burst = nullptr;
  for (const datacenter::TransientInterval& interval : result.intervals) {
    for (const datacenter::TransientJobOutcome& job : interval.jobs) {
      if (job.benchmark == "x264") burst = &job;
    }
  }
  ASSERT_NE(burst, nullptr);
  EXPECT_GT(burst->peak_tcase_c, 60.0);  // a high-power segment
  EXPECT_LT(burst->steps + burst->rejected_steps, 200u);
}

TEST_F(TransientEngineTest, ThermalStateFollowsTheStreamAcrossIntervals) {
  // Heavy phase then light phase on one stream: the light phase starts
  // warm (inherited field), so its peak is at its beginning and it cools
  // toward its end — only observable if the segment chain carries state.
  const datacenter::TransientFleetResult result =
      datacenter::TransientFleetEngine(small_fleet(), {})
          .run({workload::WorkloadTrace(
              {{"x264", {1.0}, 8.0}, {"canneal", {3.0}, 8.0}})});

  ASSERT_EQ(result.intervals.size(), 2u);
  ASSERT_EQ(result.intervals[1].jobs.size(), 1u);
  const datacenter::TransientJobOutcome& light = result.intervals[1].jobs[0];
  EXPECT_GT(light.peak_tcase_c, light.end_tcase_c + 0.2);
  // And the heavy phase heated up from the uniform start.
  const datacenter::TransientJobOutcome& heavy = result.intervals[0].jobs[0];
  EXPECT_GT(heavy.end_tcase_c, 36.0);
  EXPECT_GE(heavy.peak_die_c, heavy.peak_tcase_c);
}

TEST_F(TransientEngineTest, TransientPeaksAboveTheLimitCountViolations) {
  // A limit below the 35 °C start is exceeded from the first step.
  datacenter::FleetConfig config = small_fleet();
  for (datacenter::RackSpec& rack : config.racks) rack.tcase_limit_c = 30.0;
  const datacenter::TransientFleetResult result =
      datacenter::TransientFleetEngine(config, {})
          .run({workload::WorkloadTrace({{"x264", {1.0}, 2.0}})});
  EXPECT_GE(result.qos_violations, 1u);
  EXPECT_GT(result.peak_tcase_c, 30.0);
  ASSERT_EQ(result.intervals.size(), 1u);
  EXPECT_TRUE(result.intervals[0].jobs[0].tcase_limit_exceeded);
}

}  // namespace
}  // namespace tpcool
