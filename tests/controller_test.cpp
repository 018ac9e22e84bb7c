// Tests for tpcool::core::RuntimeController — the §VII runtime reaction:
// DVFS first when QoS allows it, valve opening otherwise, throttle last.

#include <gtest/gtest.h>

#include <cmath>
#include <limits>
#include <string>

#include "tpcool/core/pipelines.hpp"
#include "tpcool/core/runtime_controller.hpp"

namespace tpcool::core {
namespace {

constexpr double kCoarseCell = 2.0e-3;

class ControllerTest : public ::testing::Test {
 protected:
  ControllerTest()
      : server_(server_config_for(Approach::kProposed, kCoarseCell)) {}

  ScheduleDecision full_load_decision() {
    const auto& bench = workload::worst_case_benchmark();
    ScheduleDecision d;
    d.point.config = {8, 2, 3.2};
    d.point.norm_time = 1.0;
    d.cores = {1, 2, 3, 4, 5, 6, 7, 8};
    d.idle_state = power::CState::kPoll;
    (void)bench;
    return d;
  }

  ServerModel server_;
};

TEST_F(ControllerTest, NominalRunStaysCoolAndQuiet) {
  // At the design limit of 85 °C the worst case never trips the controller.
  RuntimeController controller(server_, {});
  const ControlTrace trace = controller.run(
      workload::worst_case_benchmark(), full_load_decision(),
      workload::QoSRequirement{1.0});
  EXPECT_FALSE(trace.emergency_seen);
  EXPECT_FALSE(trace.qos_violated);
  ASSERT_FALSE(trace.records.empty());
  for (const ControlRecord& r : trace.records) {
    EXPECT_EQ(r.action, ControlAction::kNone);
    EXPECT_DOUBLE_EQ(r.freq_ghz, 3.2);
  }
}

TEST_F(ControllerTest, TemperatureRisesMonotonicallyFromColdStart) {
  RuntimeController controller(server_, {});  // 40 periods, 20 s
  const ControlTrace trace = controller.run(
      workload::worst_case_benchmark(), full_load_decision(),
      workload::QoSRequirement{1.0});
  // Every period converges the boundary within its steps, so the heating
  // curve has no boundary-lag sawtooth: TCASE rises from period to period.
  for (std::size_t i = 1; i < trace.records.size(); ++i) {
    EXPECT_GT(trace.records[i].tcase_c, trace.records[i - 1].tcase_c) << i;
  }
  EXPECT_GT(trace.records.back().tcase_c,
            trace.records.front().tcase_c + 0.5);
}

TEST_F(ControllerTest, TightLimitWithQosSlackLowersFrequencyFirst) {
  RuntimeController::Config config;
  config.tcase_limit_c = 45.0;  // artificially tight: forces emergencies
  config.max_steps = 30;
  RuntimeController controller(server_, config);
  // 3x QoS slack: DVFS reduction is allowed before touching the valve.
  const ControlTrace trace = controller.run(
      workload::worst_case_benchmark(), full_load_decision(),
      workload::QoSRequirement{3.0});
  EXPECT_TRUE(trace.emergency_seen);
  bool lowered = false;
  for (const ControlRecord& r : trace.records) {
    if (r.action == ControlAction::kLowerFrequency) lowered = true;
    if (r.action == ControlAction::kRaiseFlow) {
      // §VII: flow rises only once DVFS can no longer help within QoS.
      EXPECT_TRUE(lowered);
    }
  }
  EXPECT_TRUE(lowered);
  EXPECT_LT(trace.records.back().freq_ghz, 3.2);
}

TEST_F(ControllerTest, TightLimitWithoutQosSlackOpensValve) {
  RuntimeController::Config config;
  config.tcase_limit_c = 45.0;
  config.max_steps = 30;
  RuntimeController controller(server_, config);
  // 1x QoS: lowering the frequency would violate QoS → raise flow instead.
  const ControlTrace trace = controller.run(
      workload::worst_case_benchmark(), full_load_decision(),
      workload::QoSRequirement{1.0});
  EXPECT_TRUE(trace.emergency_seen);
  bool raised_flow = false;
  for (const ControlRecord& r : trace.records) {
    EXPECT_NE(r.action, ControlAction::kLowerFrequency);
    if (r.action == ControlAction::kRaiseFlow) raised_flow = true;
  }
  EXPECT_TRUE(raised_flow);
  EXPECT_GT(trace.records.back().flow_kg_h, 7.0);
}

TEST_F(ControllerTest, ImpossibleLimitEndsInThrottle) {
  RuntimeController::Config config;
  config.tcase_limit_c = 32.0;  // below what any flow can reach
  config.max_steps = 30;
  RuntimeController controller(server_, config);
  const ControlTrace trace = controller.run(
      workload::worst_case_benchmark(), full_load_decision(),
      workload::QoSRequirement{1.0});
  EXPECT_TRUE(trace.emergency_seen);
  EXPECT_TRUE(trace.qos_violated);
  bool throttled = false;
  for (const ControlRecord& r : trace.records) {
    throttled |= (r.action == ControlAction::kThrottle);
  }
  EXPECT_TRUE(throttled);
}

TEST_F(ControllerTest, ServerFlowAboveEveryStepIsRejected) {
  // No valve step can hold 25 kg/h; starting at the lowest one would
  // silently cut the flow the server runs at.
  server_.set_operating_point(
      {.water_flow_kg_h = 25.0, .water_inlet_c = 30.0});
  RuntimeController controller(server_, {});
  try {
    (void)controller.run(workload::worst_case_benchmark(),
                         full_load_decision(), workload::QoSRequirement{1.0});
    FAIL() << "expected PreconditionError";
  } catch (const util::PreconditionError& e) {
    const std::string what = e.what();
    EXPECT_NE(what.find("25.0"), std::string::npos) << what;
    EXPECT_NE(what.find("20.0"), std::string::npos) << what;
  }
}

TEST_F(ControllerTest, RejectsBadConfig) {
  // tcase >= NaN is always false: a NaN limit would never react.
  for (const double limit : {std::nan(""),
                             std::numeric_limits<double>::infinity()}) {
    RuntimeController::Config bad;
    bad.tcase_limit_c = limit;
    EXPECT_THROW(RuntimeController(server_, bad), util::PreconditionError)
        << limit;
  }
  RuntimeController::Config no_steps;
  no_steps.max_steps = 0;
  EXPECT_THROW(RuntimeController(server_, no_steps), util::PreconditionError);
}

TEST_F(ControllerTest, FrequencyOffItsLevelByLessThanTheModelToleranceLowers) {
  // The power and performance models run 2.9 + 5e-10 GHz as the 2.9 GHz
  // level; the controller must find that level too, and step down from it
  // rather than up to the top one.
  ScheduleDecision decision = full_load_decision();
  decision.point.config.freq_ghz = 2.9 + 5e-10;
  RuntimeController::Config config;
  config.tcase_limit_c = 32.0;  // every period is an emergency
  config.max_steps = 4;
  RuntimeController controller(server_, config);
  const ControlTrace trace = controller.run(
      workload::worst_case_benchmark(), decision,
      workload::QoSRequirement{3.0});
  ASSERT_EQ(trace.records.size(), 4u);
  EXPECT_EQ(trace.records[0].action, ControlAction::kLowerFrequency);
  EXPECT_EQ(trace.records[1].freq_ghz, 2.6);
  for (std::size_t i = 0; i + 1 < trace.records.size(); ++i) {
    EXPECT_LE(trace.records[i + 1].freq_ghz, trace.records[i].freq_ghz) << i;
  }
}

}  // namespace
}  // namespace tpcool::core
