// Tests for tpcool::core::Scheduler and the approaches — Algorithm 1 end to
// end, C-state management, and the per-scheduler decision memo.

#include <gtest/gtest.h>

#include <bit>
#include <cmath>
#include <cstdint>
#include <string>

#include "tpcool/core/scheduler.hpp"
#include "tpcool/util/error.hpp"
#include "tpcool/workload/performance_model.hpp"

namespace tpcool::core {
namespace {

constexpr double kCoarseCell = 1.5e-3;

class SchedulerTest : public ::testing::Test {
 protected:
  Scheduler proposed_{Approach::kProposed};
  Scheduler soa_{Approach::kSoaBalancing};
};

TEST_F(SchedulerTest, DecisionMeetsQos) {
  for (const auto& bench : workload::parsec_benchmarks()) {
    for (const auto& qos : workload::qos_levels()) {
      const ScheduleDecision d = proposed_.schedule(bench, qos);
      EXPECT_TRUE(qos.satisfied_by(d.point.norm_time))
          << bench.name << " @" << qos.factor;
      EXPECT_EQ(static_cast<int>(d.cores.size()), d.point.config.cores);
    }
  }
}

TEST_F(SchedulerTest, QosOneSelectsBaselineEverywhere) {
  // §VIII: "when no QoS degradation is allowed, all approaches run the
  // workload with fmax and maximum number of available cores and threads".
  const workload::QoSRequirement qos{1.0};
  for (const auto& bench : workload::parsec_benchmarks()) {
    EXPECT_EQ(proposed_.schedule(bench, qos).point.config,
              workload::baseline_configuration());
    EXPECT_EQ(soa_.schedule(bench, qos).point.config,
              workload::baseline_configuration());
  }
}

TEST_F(SchedulerTest, ProposedManagesCstatesByTolerableLatency) {
  const workload::QoSRequirement qos{3.0};
  // facesim tolerates no latency -> POLL; swaptions tolerates 10 µs -> C1E.
  const ScheduleDecision rt =
      proposed_.schedule(workload::find_benchmark("facesim"), qos);
  EXPECT_EQ(rt.idle_state, power::CState::kPoll);
  const ScheduleDecision batch =
      proposed_.schedule(workload::find_benchmark("swaptions"), qos);
  EXPECT_EQ(batch.idle_state, power::CState::kC1E);
}

TEST_F(SchedulerTest, SoaAlwaysPolls) {
  const workload::QoSRequirement qos{3.0};
  for (const auto& bench : workload::parsec_benchmarks()) {
    EXPECT_EQ(soa_.schedule(bench, qos).idle_state, power::CState::kPoll);
  }
}

TEST_F(SchedulerTest, ProposedPowerNeverAboveSoa) {
  for (const auto& qos : workload::qos_levels()) {
    for (const auto& name : {"x264", "canneal", "ferret"}) {
      const auto& bench = workload::find_benchmark(name);
      const double p_prop = proposed_.schedule(bench, qos).point.power_w;
      const double p_soa = soa_.schedule(bench, qos).point.power_w;
      EXPECT_LE(p_prop, p_soa + 1e-9) << name << " @" << qos.factor;
    }
  }
}

TEST_F(SchedulerTest, DecisionSimulatesOnTheApproachServer) {
  const auto& bench = workload::find_benchmark("vips");
  const ScheduleDecision decision =
      proposed_.schedule(bench, workload::QoSRequirement{2.0});
  ServerModel server(server_config_for(Approach::kProposed, kCoarseCell));
  const SimulationResult sim = server.simulate(
      bench, decision.point.config, decision.cores, decision.idle_state);
  EXPECT_EQ(sim.active_cores, decision.cores);
  EXPECT_GT(sim.die.max_c, 30.0);
}

// ------------------------------------------------------------ decision memo --

bool same_bits(double a, double b) {
  return std::bit_cast<std::uint64_t>(a) == std::bit_cast<std::uint64_t>(b);
}

void expect_same_decision(const ScheduleDecision& a,
                          const ScheduleDecision& b) {
  EXPECT_EQ(a.point.config, b.point.config);
  EXPECT_TRUE(same_bits(a.point.power_w, b.point.power_w));
  EXPECT_TRUE(same_bits(a.point.norm_time, b.point.norm_time));
  EXPECT_TRUE(same_bits(a.point.breakdown.active_cores_w,
                        b.point.breakdown.active_cores_w));
  EXPECT_TRUE(same_bits(a.point.breakdown.idle_cores_w,
                        b.point.breakdown.idle_cores_w));
  EXPECT_TRUE(same_bits(a.point.breakdown.mcio_w, b.point.breakdown.mcio_w));
  EXPECT_TRUE(same_bits(a.point.breakdown.llc_w, b.point.breakdown.llc_w));
  EXPECT_EQ(a.cores, b.cores);
  EXPECT_EQ(a.idle_state, b.idle_state);
}

/// A decision made by a scheduler that has never decided anything else.
ScheduleDecision fresh_decision(Approach approach,
                                const workload::BenchmarkProfile& bench,
                                const workload::QoSRequirement& qos) {
  return Scheduler(approach).schedule(bench, qos);
}

TEST(ScheduleMemo, RepeatedDecisionsEqualFreshOnesBitForBit) {
  for (const Approach approach :
       {Approach::kProposed, Approach::kSoaBalancing,
        Approach::kSoaInletFirst}) {
    const Scheduler shared(approach);
    // Fill the memo with every (benchmark, QoS) pair first, so the checked
    // calls below are all served from it.
    for (const auto& bench : workload::parsec_benchmarks()) {
      for (const auto& qos : workload::qos_levels()) {
        (void)shared.schedule(bench, qos);
      }
    }
    for (const auto& bench : workload::parsec_benchmarks()) {
      for (const auto& qos : workload::qos_levels()) {
        SCOPED_TRACE(std::string(to_string(approach)) + " " + bench.name +
                     " @" + std::to_string(qos.factor));
        expect_same_decision(shared.schedule(bench, qos),
                             fresh_decision(approach, bench, qos));
      }
    }
  }
}

TEST(ScheduleMemo, KeysOnTheWholeProfileNotTheName) {
  // A custom profile reusing a PARSEC name is a different workload: it
  // must get its own decision, not the memoized one of its namesake.
  const workload::QoSRequirement qos{2.0};
  const workload::BenchmarkProfile& x264 = workload::find_benchmark("x264");
  workload::BenchmarkProfile heavy = x264;
  heavy.c_eff_w_per_ghz_v2 *= 1.5;

  const Scheduler scheduler(Approach::kProposed);
  const ScheduleDecision real = scheduler.schedule(x264, qos);
  const ScheduleDecision custom = scheduler.schedule(heavy, qos);
  EXPECT_FALSE(same_bits(custom.point.power_w, real.point.power_w));
  expect_same_decision(custom,
                       fresh_decision(Approach::kProposed, heavy, qos));
  expect_same_decision(scheduler.schedule(x264, qos), real);
}

TEST(ScheduleMemo, QosFactorsOneUlpApartAreDistinctKeys) {
  // Put the QoS factor exactly on the boundary of the configuration the
  // 2.0 tier selects: at `edge` that configuration is still feasible (and
  // still the cheapest feasible one), one ulp below it is not, so the two
  // factors must decide differently on one scheduler.
  const workload::BenchmarkProfile& bench = workload::find_benchmark("x264");
  const Scheduler scheduler(Approach::kProposed);
  const double t =
      scheduler.schedule(bench, workload::QoSRequirement{2.0}).point.norm_time;
  double edge = t - 1e-9;
  while (!workload::QoSRequirement{edge}.satisfied_by(t)) {
    edge = std::nextafter(edge, 3.0);
  }
  while (workload::QoSRequirement{std::nextafter(edge, 0.0)}.satisfied_by(t)) {
    edge = std::nextafter(edge, 0.0);
  }
  const workload::QoSRequirement at_edge{edge};
  const workload::QoSRequirement below{std::nextafter(edge, 0.0)};

  const ScheduleDecision on = scheduler.schedule(bench, at_edge);
  const ScheduleDecision off = scheduler.schedule(bench, below);
  EXPECT_TRUE(same_bits(on.point.norm_time, t));
  EXPECT_NE(on.point.config, off.point.config);
  expect_same_decision(on, fresh_decision(Approach::kProposed, bench, at_edge));
  expect_same_decision(off, fresh_decision(Approach::kProposed, bench, below));
}

TEST(Approach, NamesMatchPaperNotation) {
  EXPECT_STREQ(to_string(Approach::kProposed), "Proposed");
  EXPECT_STREQ(to_string(Approach::kSoaBalancing), "[8]+[27]+[9]");
  EXPECT_STREQ(to_string(Approach::kSoaInletFirst), "[8]+[27]+[7]");
}

}  // namespace
}  // namespace tpcool::core
