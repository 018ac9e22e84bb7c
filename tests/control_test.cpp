// Tests for the closed-loop fleet controller (datacenter/control.hpp):
// config validation, the damped-integrator step response (monotone
// convergence to the gain·error/(1−damping) fixed point), time-weighted
// windowed averaging, clamping anti-windup under a saturated fleet,
// zero-gain ≡ controller-off bitwise, bit-identity of a controlled run at
// 1/2/4 threads, snapshot-warm replay of a controlled run with 0 cache
// misses, and the PR acceptance scenario: on the diurnal day the
// controller holds the fleet PUE inside ±2% of target over the final 12 h
// while the uncontrolled fleet drifts outside the band.

#include <gtest/gtest.h>

#include <cmath>
#include <cstdio>
#include <limits>
#include <string>
#include <vector>

#include "tpcool/core/pipeline_pool.hpp"
#include "tpcool/core/solve_cache.hpp"
#include "tpcool/datacenter/control.hpp"
#include "tpcool/datacenter/fleet.hpp"
#include "tpcool/datacenter/streaming.hpp"
#include "tpcool/datacenter/workload_gen.hpp"
#include "tpcool/util/error.hpp"
#include "tpcool/util/thread_pool.hpp"

namespace tpcool::datacenter {
namespace {

// Coarse grid: these tests assert control semantics, not physics.
constexpr double kCell = 2.0e-3;

class ControlTest : public ::testing::Test {
 protected:
  void TearDown() override {
    util::ThreadPool::set_global_thread_count(0);
    core::SolveCache::global()->clear();
    core::PipelinePool::global().clear();
  }
};

/// A short closed-loop scenario for the bitwise/threading tests: the
/// hot-climate demo fleet (so bias actuation has authority) on a short
/// generated workload — same shape as `make_pue_tracking_day`, minutes of
/// simulated time instead of a day.
ControlScenario short_control_scenario(std::uint64_t seed) {
  ControlScenario scenario = make_pue_tracking_day(seed, 3, kCell);
  WorkloadGenConfig workload;
  workload.seed = seed;
  workload.streams = 3;
  workload.duration_s = 6.0 * 900.0;
  workload.slot_s = 900.0;
  workload.mean_phase_slots = 2.0;
  scenario.streams = WorkloadGenerator(workload).generate();
  return scenario;
}

/// A synthetic interval carrying only what the controller reads: the PUE
/// measurement and the interval duration.
FleetInterval constant_pue_interval(std::size_t index, double pue,
                                    double duration_s = 900.0) {
  FleetInterval interval;
  interval.interval = index;
  interval.start_s = static_cast<double>(index) * duration_s;
  interval.duration_s = duration_s;
  interval.pue = pue;
  return interval;
}

// ------------------------------------------------------------- validation --

TEST_F(ControlTest, ValidatesItsConfig) {
  EXPECT_NO_THROW(validate_controller_config(FleetControllerConfig{}));

  FleetControllerConfig bad = {};
  bad.target = -0.5;
  EXPECT_THROW(validate_controller_config(bad), util::PreconditionError);
  bad = {};
  bad.target = std::nan("");
  EXPECT_THROW(validate_controller_config(bad), util::PreconditionError);
  bad = {};
  bad.window_intervals = 0;
  EXPECT_THROW(validate_controller_config(bad), util::PreconditionError);
  bad = {};
  bad.gain_c = -1.0;
  EXPECT_THROW(validate_controller_config(bad), util::PreconditionError);
  bad = {};
  bad.damping = 0.0;
  EXPECT_THROW(validate_controller_config(bad), util::PreconditionError);
  bad = {};
  bad.damping = 1.5;
  EXPECT_THROW(validate_controller_config(bad), util::PreconditionError);
  bad = {};
  bad.min_bias_c = 1.0;
  bad.max_bias_c = -1.0;
  EXPECT_THROW(validate_controller_config(bad), util::PreconditionError);
  bad = {};
  bad.quantum_c = 0.0;
  EXPECT_THROW(validate_controller_config(bad), util::PreconditionError);
  bad = {};
  bad.quantum_c = std::numeric_limits<double>::infinity();
  EXPECT_THROW(validate_controller_config(bad), util::PreconditionError);

  // The constructor validates too.
  FleetControllerConfig zero_quantum = {};
  zero_quantum.quantum_c = 0.0;
  EXPECT_THROW(FleetController{zero_quantum}, util::PreconditionError);
}

// ---------------------------------------------------------- step response --

TEST_F(ControlTest, DampedStepResponseConvergesMonotonicallyToFixedPoint) {
  // Constant measurement below target: error = −0.2 every interval, so the
  // integrator walks monotonically to gain·error/(1−damping) = −4 °C.
  FleetControllerConfig config = {};
  config.target = 1.2;
  config.window_intervals = 1;
  config.gain_c = 10.0;
  config.damping = 0.5;
  config.min_bias_c = -100.0;
  config.max_bias_c = 0.0;
  FleetController controller(config);
  controller.on_run_begin(make_heterogeneous_fleet(2, 2, kCell), 1, 3600.0);

  const double limit_c =
      config.gain_c * (1.0 - config.target) / (1.0 - config.damping);
  double previous = controller.bias_c(0);
  double previous_distance = std::abs(previous - limit_c);
  for (std::size_t i = 0; i < 50; ++i) {
    controller.on_interval(constant_pue_interval(i, 1.0), {});
    EXPECT_DOUBLE_EQ(controller.last_error(), 1.0 - config.target);
    const double bias = controller.bias_c(0);
    // Monotone: each step moves toward the fixed point, never past it.
    EXPECT_LT(bias, previous);
    EXPECT_GE(bias, limit_c);
    const double distance = std::abs(bias - limit_c);
    EXPECT_LE(distance, config.damping * previous_distance + 1e-12);
    // Both racks see the same fleet-wide error: identical trajectories.
    EXPECT_DOUBLE_EQ(controller.bias_c(1), bias);
    previous = bias;
    previous_distance = distance;
  }
  EXPECT_NEAR(controller.bias_c(0), limit_c, 1e-9);
  // Quantized actuation lands on the configured lattice.
  EXPECT_DOUBLE_EQ(controller.applied_bias_c(0), -4.0);
}

TEST_F(ControlTest, WindowedMeasurementIsTimeWeighted) {
  FleetControllerConfig config = {};
  config.window_intervals = 2;
  FleetController controller(config);
  controller.on_run_begin(make_heterogeneous_fleet(2, 2, kCell), 1, 3600.0);

  // The control error is the windowed mean minus the target.
  const auto windowed = [&] { return controller.last_error() + config.target; };
  controller.on_interval(constant_pue_interval(0, 1.5, 100.0), {});
  EXPECT_DOUBLE_EQ(windowed(), 1.5);
  controller.on_interval(constant_pue_interval(1, 1.1, 300.0), {});
  EXPECT_DOUBLE_EQ(windowed(), (1.5 * 100.0 + 1.1 * 300.0) / 400.0);
  // The window slides: interval 0 ages out.
  controller.on_interval(constant_pue_interval(2, 1.3, 100.0), {});
  EXPECT_DOUBLE_EQ(windowed(), (1.1 * 300.0 + 1.3 * 100.0) / 400.0);
}

// -------------------------------------------------------------- anti-windup --

TEST_F(ControlTest, AntiWindupRecoversWithoutUnwindingBankedError) {
  // Pure integrator (damping = 1) with a hard saturation: a long
  // excursion must not bank correction beyond the clamp, so recovery
  // starts the moment the error flips — with the same first step a
  // freshly-saturated controller would take.
  FleetControllerConfig config = {};
  config.target = 2.0;
  config.window_intervals = 1;
  config.gain_c = 10.0;
  config.damping = 1.0;
  config.min_bias_c = -5.0;
  config.max_bias_c = 0.0;
  FleetController controller(config);
  controller.on_run_begin(make_heterogeneous_fleet(2, 2, kCell), 1, 3600.0);

  // 30 intervals of error −1: one unclamped step is already −10, so the
  // stored state pins at the rail immediately and stays there.
  for (std::size_t i = 0; i < 30; ++i) {
    controller.on_interval(constant_pue_interval(i, 1.0), {});
    EXPECT_DOUBLE_EQ(controller.bias_c(0), config.min_bias_c);
    EXPECT_DOUBLE_EQ(controller.applied_bias_c(0), config.min_bias_c);
  }

  // Error flips to +1: a clamping integrator recovers in one step
  // (−5 + 10 → clamped to 0).  A windup-prone one would sit at
  // −10·30 = −300 and need 30 intervals to surface.
  controller.on_interval(constant_pue_interval(30, 3.0), {});
  EXPECT_DOUBLE_EQ(controller.bias_c(0), config.max_bias_c);
  EXPECT_DOUBLE_EQ(controller.applied_bias_c(0), config.max_bias_c);
}

// ------------------------------------------------- zero-gain == controller-off --

TEST_F(ControlTest, ZeroGainIsBitIdenticalToNoController) {
  ControlScenario scenario = short_control_scenario(11);
  scenario.controller.gain_c = 0.0;

  core::SolveCache::global()->clear();
  StreamingFleetEngine off(scenario.fleet, scenario.streams);
  FleetResultAggregator off_agg;
  off.add_observer(off_agg);
  off.run();
  const FleetResult uncontrolled = off_agg.take();

  core::SolveCache::global()->clear();
  FleetController controller(scenario.controller);
  FleetResult zero_gain =
      run_controlled_fleet(scenario.fleet, scenario.streams, controller);

  // The controller was in the loop (state stamped on every interval) but
  // actuated nothing: every applied bias is exactly 0.
  ASSERT_EQ(zero_gain.intervals.size(), uncontrolled.intervals.size());
  for (const FleetInterval& interval : zero_gain.intervals) {
    ASSERT_TRUE(interval.control.active);
    for (const double bias : interval.control.rack_bias_c) {
      EXPECT_EQ(bias, 0.0);
    }
  }

  // Strip the control stamps: the physics underneath is bit-identical to
  // the controller-off run (a zero bias takes the exact unbiased path).
  for (FleetInterval& interval : zero_gain.intervals) {
    interval.control = FleetControlState{};
  }
  EXPECT_EQ(fleet_digest(zero_gain), fleet_digest(uncontrolled));
}

// -------------------------------------------------------------- bit-identity --

TEST_F(ControlTest, ControlledRunBitIdenticalAcrossThreadCounts) {
  const ControlScenario scenario = short_control_scenario(5);

  util::ThreadPool::set_global_thread_count(1);
  core::SolveCache::global()->clear();
  FleetController reference_controller(scenario.controller);
  const std::uint64_t reference = fleet_digest(run_controlled_fleet(
      scenario.fleet, scenario.streams, reference_controller));

  for (const std::size_t threads : {2u, 4u}) {
    util::ThreadPool::set_global_thread_count(threads);
    core::SolveCache::global()->clear();  // recompute, don't replay bits
    SCOPED_TRACE("threads=" + std::to_string(threads));
    FleetController controller(scenario.controller);
    EXPECT_EQ(fleet_digest(run_controlled_fleet(scenario.fleet,
                                                scenario.streams, controller)),
              reference);
  }
}

TEST_F(ControlTest, ControllerStateResetsBetweenRuns) {
  // One controller instance driving two identical runs produces identical
  // bits: on_run_begin resets the integrator and the window.
  const ControlScenario scenario = short_control_scenario(9);
  FleetController controller(scenario.controller);
  const std::uint64_t first = fleet_digest(
      run_controlled_fleet(scenario.fleet, scenario.streams, controller));
  const std::uint64_t second = fleet_digest(
      run_controlled_fleet(scenario.fleet, scenario.streams, controller));
  EXPECT_EQ(first, second);
}

TEST_F(ControlTest, SnapshotWarmedControlledRunReplaysWithZeroMisses) {
  // The quantized bias lattice keeps biased operating points cache-key
  // stable: a snapshot-warmed rerun of the controlled run serves every
  // solve from the loaded entries (0 misses) and reproduces the bits.
  const ControlScenario scenario = short_control_scenario(3);
  util::ThreadPool::set_global_thread_count(2);
  core::SolveCache::global()->clear();
  FleetController cold_controller(scenario.controller);
  const FleetResult cold = run_controlled_fleet(scenario.fleet,
                                                scenario.streams,
                                                cold_controller);

  const std::string path = ::testing::TempDir() + "tpcool_control_snap.bin";
  core::SolveCache::global()->save(path);
  core::SolveCache::global()->clear();
  core::SolveCache::global()->load(path);
  FleetController warm_controller(scenario.controller);
  const FleetResult warm = run_controlled_fleet(scenario.fleet,
                                                scenario.streams,
                                                warm_controller);
  const core::SolveCache::Stats stats = core::SolveCache::global()->stats();
  EXPECT_EQ(stats.misses, 0u);
  EXPECT_GT(stats.hits, 0u);
  EXPECT_EQ(fleet_digest(cold), fleet_digest(warm));
  std::remove(path.c_str());
}

// ------------------------------------------------------ acceptance scenario --

TEST_F(ControlTest, HoldsPueBandOverFinalHalfOfDiurnalDay) {
  // The PR acceptance criterion: on diurnal_fleet_day the controller
  // holds the fleet PUE within ±2% of target over the final 12 h, where
  // the uncontrolled fleet sits outside the band the whole time.
  const ControlScenario scenario = make_pue_tracking_day(42, 4, kCell);
  const double low = 0.98 * scenario.controller.target;
  const double high = 1.02 * scenario.controller.target;
  constexpr double kFinalHalfStartS = 12.0 * 3600.0;

  StreamingFleetEngine open_loop(scenario.fleet, scenario.streams);
  FleetResultAggregator open_agg;
  open_loop.add_observer(open_agg);
  open_loop.run();
  const FleetResult uncontrolled = open_agg.take();

  FleetController controller(scenario.controller);
  const FleetResult controlled =
      run_controlled_fleet(scenario.fleet, scenario.streams, controller);

  ASSERT_EQ(controlled.intervals.size(), uncontrolled.intervals.size());
  std::size_t checked = 0;
  for (std::size_t i = 0; i < controlled.intervals.size(); ++i) {
    if (controlled.intervals[i].start_s < kFinalHalfStartS) continue;
    SCOPED_TRACE("interval=" + std::to_string(i));
    EXPECT_GE(controlled.intervals[i].pue, low);
    EXPECT_LE(controlled.intervals[i].pue, high);
    // Without the loop the same fleet drifts below the band all day.
    EXPECT_LT(uncontrolled.intervals[i].pue, low);
    ++checked;
  }
  EXPECT_GT(checked, 0u);
  // The loop actually actuated: cool-only biases pulled below zero.
  double min_bias = 0.0;
  for (const FleetInterval& interval : controlled.intervals) {
    for (const double bias : interval.control.rack_bias_c) {
      min_bias = std::min(min_bias, bias);
    }
  }
  EXPECT_LT(min_bias, 0.0);
}

}  // namespace
}  // namespace tpcool::datacenter
