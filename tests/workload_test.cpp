// Tests for tpcool::workload — PARSEC profiles, configurations, the
// performance model (Fig. 3 properties) and the Algorithm-1 profiler.

#include <gtest/gtest.h>

#include <set>

#include "tpcool/floorplan/xeon_e5.hpp"
#include "tpcool/power/package_power.hpp"
#include "tpcool/util/error.hpp"
#include "tpcool/workload/benchmark.hpp"
#include "tpcool/workload/configuration.hpp"
#include "tpcool/workload/performance_model.hpp"
#include "tpcool/workload/profiler.hpp"

namespace tpcool::workload {
namespace {

// ------------------------------------------------------------- benchmarks --

TEST(Benchmarks, ThirteenParsecWorkloads) {
  EXPECT_EQ(parsec_benchmarks().size(), 13u);
  std::set<std::string> names;
  for (const auto& b : parsec_benchmarks()) names.insert(b.name);
  EXPECT_EQ(names.size(), 13u);
  for (const char* expected :
       {"blackscholes", "bodytrack", "canneal", "dedup", "facesim", "ferret",
        "fluidanimate", "freqmine", "raytrace", "streamcluster", "swaptions",
        "vips", "x264"}) {
    EXPECT_EQ(names.count(expected), 1u) << expected;
  }
}

TEST(Benchmarks, ParametersInValidRanges) {
  for (const auto& b : parsec_benchmarks()) {
    EXPECT_GT(b.c_eff_w_per_ghz_v2, 0.0) << b.name;
    EXPECT_GE(b.smt_yield, 1.0) << b.name;
    EXPECT_LE(b.smt_yield, 1.5) << b.name;
    EXPECT_GE(b.serial_fraction, 0.0) << b.name;
    EXPECT_LT(b.serial_fraction, 0.2) << b.name;
    EXPECT_GT(b.scaling_exponent, 0.3) << b.name;
    EXPECT_LE(b.scaling_exponent, 1.0) << b.name;
    EXPECT_GE(b.mem_intensity, 0.0) << b.name;
    EXPECT_LE(b.mem_intensity, 1.0) << b.name;
  }
}

TEST(Benchmarks, LookupAndUnknown) {
  EXPECT_EQ(find_benchmark("x264").name, "x264");
  EXPECT_THROW((void)find_benchmark("doom"), util::PreconditionError);
}

TEST(Benchmarks, WorstCaseIsHighestFullLoadPower) {
  // x264 carries the largest c_eff·smt product in the calibrated set.
  EXPECT_EQ(worst_case_benchmark().name, "x264");
}

// ---------------------------------------------------------- configuration --

TEST(Configuration, LabelAndThreads) {
  const Configuration c{4, 2, 2.9};
  EXPECT_EQ(c.total_threads(), 8);
  EXPECT_EQ(c.label(), "(4,8,2.9)");
}

TEST(Configuration, SpaceSize) {
  // 8 core counts × 2 SMT settings × 3 frequencies.
  EXPECT_EQ(configuration_space(8).size(), 48u);
  EXPECT_THROW(configuration_space(0), util::PreconditionError);
}

TEST(Configuration, Fig3SetMatchesPaper) {
  const auto configs = fig3_configurations();
  ASSERT_EQ(configs.size(), 5u);
  EXPECT_EQ(configs[0].label(), "(2,4,3.2)");
  EXPECT_EQ(configs[1].label(), "(4,4,3.2)");
  EXPECT_EQ(configs[2].label(), "(4,8,3.2)");
  EXPECT_EQ(configs[3].label(), "(8,8,3.2)");
  EXPECT_EQ(configs[4].label(), "(8,16,3.2)");
}

TEST(Configuration, QosLevels) {
  ASSERT_EQ(qos_levels().size(), 3u);
  EXPECT_TRUE(qos_levels()[0].satisfied_by(1.0));
  EXPECT_FALSE(qos_levels()[0].satisfied_by(1.01));
  EXPECT_TRUE(qos_levels()[1].satisfied_by(2.0));
  EXPECT_TRUE(qos_levels()[2].satisfied_by(2.99));
}

// ------------------------------------------------------ performance model --

class PerBenchmark : public ::testing::TestWithParam<BenchmarkProfile> {};

INSTANTIATE_TEST_SUITE_P(
    AllParsec, PerBenchmark, ::testing::ValuesIn(parsec_benchmarks()),
    [](const auto& info) { return info.param.name; });

TEST_P(PerBenchmark, BaselineNormalizedTimeIsOne) {
  EXPECT_NEAR(normalized_exec_time(GetParam(), baseline_configuration()), 1.0,
              1e-12);
}

TEST_P(PerBenchmark, AnyReducedConfigurationIsSlower) {
  for (const Configuration& c : configuration_space(8)) {
    if (c == baseline_configuration()) continue;
    EXPECT_GT(normalized_exec_time(GetParam(), c), 1.0) << c.label();
  }
}

TEST_P(PerBenchmark, MoreCoresNeverSlower) {
  const BenchmarkProfile& b = GetParam();
  for (int nc = 1; nc < 8; ++nc) {
    const double slower = normalized_exec_time(b, {nc, 2, 3.2});
    const double faster = normalized_exec_time(b, {nc + 1, 2, 3.2});
    EXPECT_GE(slower, faster) << b.name << " at " << nc;
  }
}

TEST_P(PerBenchmark, HigherFrequencyNeverSlower) {
  const BenchmarkProfile& b = GetParam();
  for (int nc : {2, 4, 8}) {
    EXPECT_GE(normalized_exec_time(b, {nc, 2, 2.6}),
              normalized_exec_time(b, {nc, 2, 2.9}));
    EXPECT_GE(normalized_exec_time(b, {nc, 2, 2.9}),
              normalized_exec_time(b, {nc, 2, 3.2}));
  }
}

TEST_P(PerBenchmark, SmtHelpsThroughput) {
  const BenchmarkProfile& b = GetParam();
  EXPECT_GE(normalized_exec_time(b, {4, 1, 3.2}),
            normalized_exec_time(b, {4, 2, 3.2}));
}

TEST_P(PerBenchmark, Fig3SpreadWithinChartRange) {
  // Fig. 3's y-axis spans ~0.9–2.1 at fmax; (2,4) is the slowest plotted
  // configuration and stays below ~2.3 for every benchmark.
  const double worst = normalized_exec_time(GetParam(), {2, 2, 3.2});
  EXPECT_GT(worst, 1.2);
  EXPECT_LT(worst, 2.4);
}

TEST(PerformanceModel, MemoryBoundLessFrequencySensitive) {
  const BenchmarkProfile& mem = find_benchmark("streamcluster");   // m=0.85
  const BenchmarkProfile& cpu = find_benchmark("swaptions");       // m=0.05
  const double mem_slowdown = normalized_exec_time(mem, {8, 2, 2.6});
  const double cpu_slowdown = normalized_exec_time(cpu, {8, 2, 2.6});
  EXPECT_LT(mem_slowdown, cpu_slowdown);
}

TEST(PerformanceModel, UtilizationReflectsSmt) {
  const BenchmarkProfile& b = find_benchmark("ferret");
  EXPECT_DOUBLE_EQ(core_utilization(b, {4, 1, 3.2}), 1.0);
  EXPECT_DOUBLE_EQ(core_utilization(b, {4, 2, 3.2}), b.smt_yield);
}

// --------------------------------------------------------------- profiler --

class ProfilerTest : public ::testing::Test {
 protected:
  floorplan::Floorplan fp_ = floorplan::make_xeon_e5_floorplan();
  power::PackagePowerModel model_{fp_};
  Profiler profiler_{model_};
};

TEST_F(ProfilerTest, ProfilesFullSpace) {
  const auto points =
      profiler_.profile(find_benchmark("vips"), power::CState::kPoll);
  EXPECT_EQ(points.size(), 48u);
  for (const auto& p : points) {
    EXPECT_GT(p.power_w, 0.0);
    EXPECT_GE(p.norm_time, 1.0 - 1e-12);
    EXPECT_NEAR(p.power_w, p.breakdown.total_w(), 1e-12);
  }
}

TEST_F(ProfilerTest, RequestMatchesConfiguration) {
  const auto& bench = find_benchmark("canneal");
  const Configuration config{5, 2, 2.9};
  const power::PackagePowerRequest req =
      profiler_.request_for(bench, config, power::CState::kC1);
  EXPECT_EQ(req.active_cores.size(), 5u);
  EXPECT_DOUBLE_EQ(req.freq_ghz, 2.9);
  EXPECT_DOUBLE_EQ(req.utilization, bench.smt_yield);
  EXPECT_DOUBLE_EQ(req.llc_activity, bench.mem_intensity);
  EXPECT_EQ(req.idle_state, power::CState::kC1);
}

TEST_F(ProfilerTest, DeeperIdleStateLowersEveryConfig) {
  const auto& bench = find_benchmark("dedup");
  const auto poll = profiler_.profile(bench, power::CState::kPoll);
  const auto c1e = profiler_.profile(bench, power::CState::kC1E);
  ASSERT_EQ(poll.size(), c1e.size());
  for (std::size_t i = 0; i < poll.size(); ++i) {
    if (poll[i].config.cores == 8) {
      EXPECT_NEAR(poll[i].power_w, c1e[i].power_w, 1e-12);  // no idle cores
    } else {
      EXPECT_GT(poll[i].power_w, c1e[i].power_w);
    }
  }
}

}  // namespace
}  // namespace tpcool::workload
