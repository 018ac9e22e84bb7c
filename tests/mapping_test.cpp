// Tests for tpcool::mapping — the proposed policy and the three baselines
// (placement invariants, Fig. 6 scenario reproduction), plus configuration
// selection (Algorithm 1 and Pack & Cap, including their energy cost).

#include <gtest/gtest.h>

#include <algorithm>
#include <limits>
#include <set>

#include "tpcool/floorplan/xeon_e5.hpp"
#include "tpcool/mapping/balancing.hpp"
#include "tpcool/mapping/clustered.hpp"
#include "tpcool/mapping/config_select.hpp"
#include "tpcool/mapping/inlet_first.hpp"
#include "tpcool/mapping/proposed.hpp"
#include "tpcool/power/package_power.hpp"
#include "tpcool/util/error.hpp"
#include "tpcool/workload/profiler.hpp"

namespace tpcool::mapping {
namespace {

class MappingTest : public ::testing::Test {
 protected:
  MappingContext context(int cores, power::CState idle,
                         thermosyphon::Orientation orientation =
                             thermosyphon::Orientation::kEastWest) const {
    MappingContext c;
    c.floorplan = &fp_;
    c.orientation = orientation;
    c.idle_state = idle;
    c.cores_needed = cores;
    return c;
  }

  /// Number of active cores on each core-grid row.
  std::vector<int> row_counts(const std::vector<int>& cores) const {
    std::vector<int> counts(4, 0);
    for (const int id : cores) ++counts[fp_.core(id).row];
    return counts;
  }

  floorplan::Floorplan fp_ = floorplan::make_xeon_e5_floorplan();
};

// ----------------------------------------------------- generic invariants --

class AllPolicies
    : public MappingTest,
      public ::testing::WithParamInterface<int> {};

TEST_P(AllPolicies, DistinctValidCoreIdsAtEveryCount) {
  const ProposedPolicy proposed;
  const BalancingPolicy balancing;
  const InletFirstPolicy inlet;
  const ClusteredPolicy clustered;
  const int n = GetParam();
  for (const MappingPolicy* policy :
       std::initializer_list<const MappingPolicy*>{&proposed, &balancing,
                                                   &inlet, &clustered}) {
    for (const power::CState idle : {power::CState::kPoll, power::CState::kC1}) {
      const std::vector<int> cores = policy->select_cores(context(n, idle));
      EXPECT_EQ(cores.size(), static_cast<std::size_t>(n)) << policy->name();
      std::set<int> unique(cores.begin(), cores.end());
      EXPECT_EQ(unique.size(), cores.size()) << policy->name();
      for (const int id : cores) {
        EXPECT_GE(id, 1) << policy->name();
        EXPECT_LE(id, 8) << policy->name();
      }
    }
  }
}

INSTANTIATE_TEST_SUITE_P(CoreCounts, AllPolicies, ::testing::Range(1, 9));

TEST_F(MappingTest, PoliciesAreDeterministic) {
  const ProposedPolicy policy;
  const auto a = policy.select_cores(context(5, power::CState::kC1));
  const auto b = policy.select_cores(context(5, power::CState::kC1));
  EXPECT_EQ(a, b);
}

TEST_F(MappingTest, RejectsBadCoreCounts) {
  const ProposedPolicy policy;
  EXPECT_THROW(policy.select_cores(context(0, power::CState::kPoll)),
               util::PreconditionError);
  EXPECT_THROW(policy.select_cores(context(9, power::CState::kPoll)),
               util::PreconditionError);
}

// ----------------------------------------------------------- proposed map --

TEST_F(MappingTest, ProposedDeepSleepLimitsCoresPerChannelRow) {
  // §VII: with deep idle states, at most one active core per horizontal
  // (channel) line while cores are available.
  const ProposedPolicy policy;
  for (int n = 1; n <= 4; ++n) {
    const auto cores = policy.select_cores(context(n, power::CState::kC1));
    for (const int count : row_counts(cores)) EXPECT_LE(count, 1) << n;
  }
  // Beyond 4 cores the rows must fill as evenly as possible.
  const auto six = policy.select_cores(context(6, power::CState::kC1));
  for (const int count : row_counts(six)) EXPECT_LE(count, 2);
}

TEST_F(MappingTest, ProposedDeepSleepIsScenario1) {
  const ProposedPolicy policy;
  const auto cores = policy.select_cores(context(4, power::CState::kC1));
  const std::set<int> got(cores.begin(), cores.end());
  EXPECT_EQ(got, std::set<int>({5, 4, 7, 2}));
}

TEST_F(MappingTest, ProposedPollIsCornersScenario2) {
  const ProposedPolicy policy;
  const auto cores = policy.select_cores(context(4, power::CState::kPoll));
  const std::set<int> got(cores.begin(), cores.end());
  EXPECT_EQ(got, std::set<int>({5, 4, 1, 8}));
}

TEST_F(MappingTest, ProposedAdaptsToCState) {
  // The same request maps differently depending on the idle state — the
  // core of the paper's contribution.
  const ProposedPolicy policy;
  const auto poll = policy.select_cores(context(4, power::CState::kPoll));
  const auto c1 = policy.select_cores(context(4, power::CState::kC1));
  EXPECT_NE(std::set<int>(poll.begin(), poll.end()),
            std::set<int>(c1.begin(), c1.end()));
}

// ---------------------------------------------------------------- baselines --

TEST_F(MappingTest, BalancingIgnoresCState) {
  const BalancingPolicy policy;
  const auto poll = policy.select_cores(context(4, power::CState::kPoll));
  const auto c1 = policy.select_cores(context(4, power::CState::kC1));
  EXPECT_EQ(poll, c1);
  const std::set<int> got(poll.begin(), poll.end());
  EXPECT_EQ(got, std::set<int>({5, 4, 1, 8}));  // the four corners
}

TEST_F(MappingTest, InletFirstFollowsOrientation) {
  const InletFirstPolicy policy;
  // East-west design: the west column (cores 5..8) is closest to the inlet.
  const auto ew = policy.select_cores(
      context(4, power::CState::kPoll, thermosyphon::Orientation::kEastWest));
  EXPECT_EQ(std::set<int>(ew.begin(), ew.end()), std::set<int>({5, 6, 7, 8}));
  // North-south design: the top rows are closest to the (north) inlet.
  const auto ns = policy.select_cores(context(
      4, power::CState::kPoll, thermosyphon::Orientation::kNorthSouth));
  EXPECT_EQ(std::set<int>(ns.begin(), ns.end()), std::set<int>({5, 1, 6, 2}));
}

TEST_F(MappingTest, ClusteredIsScenario3) {
  const ClusteredPolicy policy;
  const auto cores = policy.select_cores(context(4, power::CState::kPoll));
  EXPECT_EQ(std::set<int>(cores.begin(), cores.end()),
            std::set<int>({5, 1, 6, 2}));
}

// --------------------------------------------------------- config selection --

class SelectTest : public ::testing::Test {
 protected:
  SelectTest()
      : fp_(floorplan::make_xeon_e5_floorplan()),
        model_(fp_),
        profiler_(model_) {}

  /// Least power × normalized time over the points that meet the QoS.
  static double min_energy(const std::vector<workload::ConfigPoint>& profile,
                           const workload::QoSRequirement& qos) {
    double best = std::numeric_limits<double>::infinity();
    for (const auto& p : profile) {
      if (qos.satisfied_by(p.norm_time)) {
        best = std::min(best, p.power_w * p.norm_time);
      }
    }
    return best;
  }

  floorplan::Floorplan fp_;
  power::PackagePowerModel model_;
  workload::Profiler profiler_;
};

TEST_F(SelectTest, Algorithm1NearMinEnergyAtRelaxedQos) {
  // Min-power and min-energy selections agree closely at relaxed QoS: the
  // min-power config runs longer but the energy penalty is bounded.
  const auto profile = profiler_.profile(workload::find_benchmark("x264"),
                                         power::CState::kC1E);
  const workload::QoSRequirement qos{3.0};
  const workload::ConfigPoint algo1 = algorithm1_select(profile, qos);
  EXPECT_LE(algo1.power_w * algo1.norm_time, 1.5 * min_energy(profile, qos));
}

TEST_F(SelectTest, PackingCostsEnergy) {
  // Pack & Cap's high-frequency packing burns more energy than the
  // min-energy configuration for most benchmarks at relaxed QoS.
  const workload::QoSRequirement qos{3.0};
  int worse = 0, total = 0;
  for (const auto& bench : workload::parsec_benchmarks()) {
    const auto profile = profiler_.profile(bench, power::CState::kPoll);
    const workload::ConfigPoint packed = packcap_select(profile, qos);
    if (packed.power_w * packed.norm_time > min_energy(profile, qos) * 1.05) {
      ++worse;
    }
    ++total;
  }
  EXPECT_GT(worse, total / 2);
}

TEST_F(SelectTest, Algorithm1PicksMinimumPowerMeetingQos) {
  const auto& bench = workload::find_benchmark("ferret");
  const auto profile = profiler_.profile(bench, power::CState::kC1E);
  const workload::QoSRequirement qos{2.0};
  const workload::ConfigPoint chosen = algorithm1_select(profile, qos);
  EXPECT_TRUE(qos.satisfied_by(chosen.norm_time));
  for (const auto& p : profile) {
    if (qos.satisfied_by(p.norm_time)) {
      EXPECT_GE(p.power_w, chosen.power_w - 1e-12);
    }
  }
}

TEST_F(SelectTest, Algorithm1QosOneRequiresBaseline) {
  const auto& bench = workload::find_benchmark("swaptions");
  const auto profile = profiler_.profile(bench, power::CState::kPoll);
  const workload::ConfigPoint chosen =
      algorithm1_select(profile, workload::QoSRequirement{1.0});
  EXPECT_EQ(chosen.config, workload::baseline_configuration());
}

TEST_F(SelectTest, RelaxedQosNeverRaisesPower) {
  const auto& bench = workload::find_benchmark("x264");
  const auto profile = profiler_.profile(bench, power::CState::kC1E);
  double prev = 1e9;
  for (const auto& qos : workload::qos_levels()) {
    const double p = algorithm1_select(profile, qos).power_w;
    EXPECT_LE(p, prev + 1e-12);
    prev = p;
  }
}

TEST_F(SelectTest, PackCapPacksOntoFewestCores) {
  const auto& bench = workload::find_benchmark("x264");
  const auto profile = profiler_.profile(bench, power::CState::kPoll);
  const workload::QoSRequirement qos{2.0};
  const workload::ConfigPoint packed = packcap_select(profile, qos);
  EXPECT_TRUE(qos.satisfied_by(packed.norm_time));
  for (const auto& p : profile) {
    if (qos.satisfied_by(p.norm_time) && p.power_w <= 85.0) {
      EXPECT_GE(p.config.cores, packed.config.cores);
    }
  }
}

TEST_F(SelectTest, PackCapBurnsAtLeastAsMuchPowerAsAlgorithm1) {
  // The state-of-the-art selector trades power for packing — the basis of
  // the paper's §VIII-B cooling-power comparison.
  for (const auto& bench : workload::parsec_benchmarks()) {
    const auto profile = profiler_.profile(bench, power::CState::kPoll);
    for (const auto& qos : workload::qos_levels()) {
      EXPECT_GE(packcap_select(profile, qos).power_w,
                algorithm1_select(profile, qos).power_w - 1e-12)
          << bench.name << " at " << qos.factor;
    }
  }
}

TEST_F(SelectTest, PackCapRespectsPowerCap) {
  const auto& bench = workload::find_benchmark("x264");
  const auto profile = profiler_.profile(bench, power::CState::kPoll);
  const workload::ConfigPoint p =
      packcap_select(profile, workload::QoSRequirement{3.0}, 50.0);
  EXPECT_LE(p.power_w, 50.0);
}

TEST_F(SelectTest, ImpossibleQosThrows) {
  const auto& bench = workload::find_benchmark("canneal");
  const auto profile = profiler_.profile(bench, power::CState::kPoll);
  EXPECT_THROW((void)algorithm1_select(profile, workload::QoSRequirement{0.5}),
               util::PreconditionError);
  EXPECT_THROW((void)packcap_select(profile, workload::QoSRequirement{2.0}, 10.0),
               util::PreconditionError);
}

}  // namespace
}  // namespace tpcool::mapping
