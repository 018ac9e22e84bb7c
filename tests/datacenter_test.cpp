// Tests for the datacenter fleet layer: placement-policy units and the
// registry, FleetModel validation and metrics accounting, bit-identity of
// fleet sweeps at 1/2/4 threads and for cold vs snapshot-warmed caches,
// the §V plan against plain uncached solves (one rack, and racks that may
// or may not share scans), and the propagation of TCASE-limit violations
// into the fleet QoS counters (the steady-state analogue of the transient
// engine's qos_violations).

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdio>
#include <limits>
#include <memory>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "tpcool/core/pipeline_pool.hpp"
#include "tpcool/core/server.hpp"
#include "tpcool/core/solve_cache.hpp"
#include "tpcool/datacenter/fleet.hpp"
#include "tpcool/datacenter/placement.hpp"
#include "tpcool/datacenter/streaming.hpp"
#include "tpcool/datacenter/transient.hpp"
#include "tpcool/util/error.hpp"
#include "tpcool/util/thread_pool.hpp"
#include "tpcool/workload/benchmark.hpp"

namespace tpcool::datacenter {
namespace {

// Coarse grid: these tests assert dispatch and determinism, not physics.
constexpr double kCell = 2.0e-3;

class DatacenterTest : public ::testing::Test {
 protected:
  void TearDown() override {
    util::ThreadPool::set_global_thread_count(0);
    core::SolveCache::global()->clear();
    core::PipelinePool::global().clear();
  }
};

// ------------------------------------------------------ placement policies --

std::vector<RackLoad> three_racks() {
  return {{0, 2, 0, 0.0, kIdleHeadroomC},
          {1, 2, 0, 0.0, kIdleHeadroomC},
          {2, 2, 0, 0.0, kIdleHeadroomC}};
}

JobRequest any_job() {
  JobRequest job;
  job.bench = &workload::find_benchmark("x264");
  job.qos = workload::QoSRequirement{2.0};
  job.est_power_w = job_power_estimate(*job.bench, job.qos);
  return job;
}

TEST(PlacementRegistry, NamesRoundTripThroughFactory) {
  ASSERT_EQ(placement_policy_names().size(), 4u);
  for (const std::string& name : placement_policy_names()) {
    const std::unique_ptr<PlacementPolicy> policy =
        make_placement_policy(name);
    ASSERT_NE(policy, nullptr) << name;
    EXPECT_EQ(policy->name(), name);
  }
  // The lookahead horizon is a constant, not a name suffix.
  for (const char* unknown : {"random", "windowed:4"}) {
    EXPECT_THROW((void)make_placement_policy(unknown), util::PreconditionError)
        << unknown;
  }
}

TEST(PlacementPolicy, RoundRobinCyclesAndSkipsFullRacks) {
  RoundRobinPlacement policy;
  std::vector<RackLoad> racks = three_racks();
  const JobRequest job = any_job();
  EXPECT_EQ(policy.select_rack(job, racks), 0u);
  EXPECT_EQ(policy.select_rack(job, racks), 1u);
  EXPECT_EQ(policy.select_rack(job, racks), 2u);
  EXPECT_EQ(policy.select_rack(job, racks), 0u);  // wraps
  racks[1].assigned = racks[1].capacity;          // rack 1 now full
  EXPECT_EQ(policy.select_rack(job, racks), 2u);  // 1 skipped
  racks[0].assigned = racks[0].capacity;
  racks[2].assigned = racks[2].capacity;
  EXPECT_THROW((void)policy.select_rack(job, racks),
               util::PreconditionError);  // everything full
}

TEST(PlacementPolicy, LeastPowerPicksLightestOpenRack) {
  LeastPowerPlacement policy;
  std::vector<RackLoad> racks = three_racks();
  racks[0].est_power_w = 30.0;
  racks[1].est_power_w = 10.0;
  racks[2].est_power_w = 20.0;
  const JobRequest job = any_job();
  EXPECT_EQ(policy.select_rack(job, racks), 1u);
  racks[1].assigned = racks[1].capacity;  // lightest is full
  EXPECT_EQ(policy.select_rack(job, racks), 2u);
  racks[2].est_power_w = 30.0;  // tie with rack 0: lowest index wins
  EXPECT_EQ(policy.select_rack(job, racks), 0u);
}

TEST(PlacementPolicy, ThermalHeadroomPrefersCoolestThenEmptiest) {
  ThermalHeadroomPlacement policy;
  std::vector<RackLoad> racks = three_racks();
  racks[0].headroom_c = 5.0;
  racks[1].headroom_c = 20.0;
  racks[2].headroom_c = 12.0;
  const JobRequest job = any_job();
  EXPECT_EQ(policy.select_rack(job, racks), 1u);
  // Equal headroom (the historyless first interval): fewest assigned wins.
  racks[0].headroom_c = racks[1].headroom_c = racks[2].headroom_c = 10.0;
  racks[0].assigned = 1;
  racks[1].assigned = 1;
  EXPECT_EQ(policy.select_rack(job, racks), 2u);
}

TEST(PlacementPolicy, HeadroomOrderIsTrulyLexicographic) {
  // Regression: the old cost encoding `-headroom * 1e6 + assigned` stopped
  // being lexicographic once two racks' headrooms differed by less than
  // assigned / 1e6 — a sub-microdegree headroom edge lost to an emptier
  // rack.  Any headroom difference must outrank the assignment count.
  ThermalHeadroomPlacement policy;
  std::vector<RackLoad> racks = three_racks();
  racks[0].headroom_c = 10.0;
  racks[0].assigned = 0;
  racks[1].headroom_c = 10.0 + 1e-9;  // more headroom, but busier
  racks[1].assigned = 1;
  racks[2].headroom_c = 5.0;
  const JobRequest job = any_job();
  // The weighted sum picked rack 0 (its -1e7 beat -1e7 - 1e-3 + 1).
  EXPECT_EQ(policy.select_rack(job, racks), 1u);
}

TEST(PlacementPolicy, JobPowerEstimateTracksQoSSlack) {
  const workload::BenchmarkProfile& bench = workload::find_benchmark("x264");
  // Tighter QoS leaves less power slack, so the estimate is larger.
  EXPECT_GT(job_power_estimate(bench, {1.0}), job_power_estimate(bench, {3.0}));
  EXPECT_THROW((void)job_power_estimate(bench, {0.5}),
               util::PreconditionError);
}

// ------------------------------------------------------------- FleetModel --

FleetConfig two_rack_fleet() {
  FleetConfig config = make_heterogeneous_fleet(2, 2, kCell);
  return config;
}

TEST_F(DatacenterTest, ValidatesConfigAndStreams) {
  EXPECT_THROW(FleetModel(FleetConfig{}), util::PreconditionError);
  FleetConfig bad_policy = two_rack_fleet();
  bad_policy.placement = "no-such-policy";
  EXPECT_THROW(FleetModel(std::move(bad_policy)), util::PreconditionError);
  FleetConfig no_servers = two_rack_fleet();
  no_servers.racks[0].servers = 0;
  EXPECT_THROW(FleetModel(std::move(no_servers)), util::PreconditionError);
  // Supply candidates are scanned in order, so they must descend strictly:
  // ascending, a hot server would report the coldest candidate as its max.
  for (const std::vector<double>& candidates :
       {std::vector<double>{15.0, 40.0}, std::vector<double>{40.0, 40.0}}) {
    FleetConfig unordered = two_rack_fleet();
    unordered.racks[1].supply_candidates_c = candidates;
    EXPECT_THROW(FleetModel(std::move(unordered)), util::PreconditionError);
  }
  // No comparison with NaN is true, so the descent check alone would let
  // these through; a non-finite limit would write NaN or inf headroom.
  constexpr double kNaN = std::numeric_limits<double>::quiet_NaN();
  constexpr double kInf = std::numeric_limits<double>::infinity();
  for (const std::vector<double>& candidates :
       {std::vector<double>{40.0, kNaN, 30.0}, std::vector<double>{kNaN},
        std::vector<double>{kInf, 30.0}}) {
    FleetConfig non_finite = two_rack_fleet();
    non_finite.racks[1].supply_candidates_c = candidates;
    EXPECT_THROW(FleetModel(std::move(non_finite)), util::PreconditionError);
  }
  FleetConfig nan_limit = two_rack_fleet();
  nan_limit.racks[0].tcase_limit_c = kNaN;
  EXPECT_THROW(FleetModel(std::move(nan_limit)), util::PreconditionError);
  // A bad chiller fails at construction, not at the first interval's COP
  // clamp or PUE check.
  const auto bad_chiller = [](auto&& spoil) {
    FleetConfig config = two_rack_fleet();
    spoil(config.racks[1].chiller);
    return config;
  };
  EXPECT_THROW(FleetModel(bad_chiller(
                   [&](cooling::ChillerModel& c) { c.ambient_c = kNaN; })),
               util::PreconditionError);
  EXPECT_THROW(FleetModel(bad_chiller(
                   [&](cooling::ChillerModel& c) { c.approach_k = kInf; })),
               util::PreconditionError);
  for (const double eff : {0.0, 1.5, kNaN}) {
    EXPECT_THROW(FleetModel(bad_chiller([&](cooling::ChillerModel& c) {
                   c.second_law_eff = eff;
                 })),
                 util::PreconditionError)
        << eff;
  }
  for (const double pump : {-1.0, kNaN}) {
    EXPECT_THROW(FleetModel(bad_chiller([&](cooling::ChillerModel& c) {
                   c.pump_overhead_w = pump;
                 })),
                 util::PreconditionError)
        << pump;
  }
  for (const double cop : {0.2, kInf}) {
    EXPECT_THROW(FleetModel(bad_chiller(
                     [&](cooling::ChillerModel& c) { c.max_cop = cop; })),
                 util::PreconditionError)
        << cop;
  }

  FleetModel fleet(two_rack_fleet());
  EXPECT_THROW((void)fleet.run({}), util::PreconditionError);

  // 5 streams against 4 servers: over capacity, reported not deadlocked.
  const workload::WorkloadTrace trace({{"x264", {2.0}, 1.0}});
  EXPECT_THROW((void)fleet.run({trace, trace, trace, trace, trace}),
               util::PreconditionError);
}

TEST_F(DatacenterTest, SinglePhaseStreamMakesOneConsistentInterval) {
  FleetModel fleet(two_rack_fleet());
  const workload::WorkloadTrace trace({{"x264", {2.0}, 5.0}});
  const FleetResult result = fleet.run({trace});

  ASSERT_EQ(result.intervals.size(), 1u);
  const FleetInterval& iv = result.intervals[0];
  EXPECT_DOUBLE_EQ(iv.start_s, 0.0);
  EXPECT_DOUBLE_EQ(iv.duration_s, 5.0);
  ASSERT_EQ(iv.jobs.size(), 1u);
  EXPECT_EQ(iv.jobs[0].stream, 0u);
  EXPECT_EQ(iv.jobs[0].benchmark, "x264");
  EXPECT_EQ(iv.jobs[0].rack, 0u);  // round-robin starts at rack 0
  EXPECT_GT(iv.jobs[0].package_power_w, 0.0);
  EXPECT_GT(iv.jobs[0].max_supply_temp_c, 0.0);
  EXPECT_FALSE(iv.jobs[0].tcase_limit_exceeded);
  EXPECT_EQ(iv.qos_violations, 0u);

  // The loaded rack reports the §V shared-loop state; the idle rack is
  // zeroed and keeps the idle headroom.
  EXPECT_EQ(iv.racks[0].jobs, 1u);
  EXPECT_DOUBLE_EQ(iv.racks[0].cooling.supply_temp_c,
                   iv.jobs[0].max_supply_temp_c);
  EXPECT_LT(iv.racks[0].headroom_c, kIdleHeadroomC);
  EXPECT_EQ(iv.racks[1].jobs, 0u);
  EXPECT_DOUBLE_EQ(iv.racks[1].cooling.supply_temp_c, 0.0);
  EXPECT_DOUBLE_EQ(iv.racks[1].headroom_c, kIdleHeadroomC);

  // Energy and PUE accounting close over the single interval.
  EXPECT_DOUBLE_EQ(result.duration_s, 5.0);
  EXPECT_DOUBLE_EQ(result.total_it_energy_j, iv.it_power_w * 5.0);
  EXPECT_DOUBLE_EQ(result.total_chiller_energy_j, iv.chiller_power_w * 5.0);
  EXPECT_GT(result.total_facility_energy_j, result.total_it_energy_j);
  EXPECT_DOUBLE_EQ(result.avg_pue, iv.pue);
  EXPECT_GT(result.avg_pue, 1.0);   // chiller + distribution overhead
  EXPECT_LT(result.avg_pue, 1.4);   // far below the air-cooled 1.4-1.65
}

TEST_F(DatacenterTest, IntervalsAreTheUnionOfPhaseBoundaries) {
  FleetModel fleet(two_rack_fleet());
  const workload::WorkloadTrace a({{"x264", {2.0}, 4.0},
                                   {"canneal", {3.0}, 4.0}});
  const workload::WorkloadTrace b({{"swaptions", {2.0}, 2.0},
                                   {"vips", {2.0}, 4.0}});
  const FleetResult result = fleet.run({a, b});

  // Boundaries {0, 2, 4, 6, 8}: stream b ends at 6, stream a at 8.
  ASSERT_EQ(result.intervals.size(), 4u);
  EXPECT_DOUBLE_EQ(result.intervals[0].start_s, 0.0);
  EXPECT_DOUBLE_EQ(result.intervals[1].start_s, 2.0);
  EXPECT_DOUBLE_EQ(result.intervals[2].start_s, 4.0);
  EXPECT_DOUBLE_EQ(result.intervals[3].start_s, 6.0);
  EXPECT_EQ(result.intervals[0].jobs.size(), 2u);
  EXPECT_EQ(result.intervals[2].jobs.size(), 2u);
  // Stream b is done after t=6: only stream a's last phase remains.
  ASSERT_EQ(result.intervals[3].jobs.size(), 1u);
  EXPECT_EQ(result.intervals[3].jobs[0].stream, 0u);
  EXPECT_EQ(result.intervals[3].jobs[0].benchmark, "canneal");
}

TEST_F(DatacenterTest, UlpBoundarySliversCollapseToTheLargerVariant) {
  // Two streams whose boundaries coincide only up to float accumulation:
  // stream a's total is 0.1 + 0.2 (the larger ULP variant), stream b's is
  // the literal 0.3.  Exact dedupe would keep both variants and emit a
  // sliver interval of ~5.6e-17 s between them.
  ASSERT_NE(0.1 + 0.2, 0.3);  // the premise
  const workload::WorkloadTrace a({{"x264", {2.0}, 0.1},
                                   {"canneal", {3.0}, 0.2}});
  const workload::WorkloadTrace b({{"vips", {2.0}, 0.3}});

  const std::vector<double> boundaries = fleet_interval_boundaries({a, b});
  ASSERT_EQ(boundaries.size(), 3u);
  EXPECT_EQ(boundaries[0], 0.0);
  EXPECT_EQ(boundaries[1], 0.1);
  // The cluster collapses to its LARGER member, so stream b (whose own sum
  // is the smaller variant) tests as finished there instead of being
  // resurrected for the sliver.
  EXPECT_EQ(boundaries[2], 0.1 + 0.2);

  FleetModel fleet(two_rack_fleet());
  const FleetResult result = fleet.run({a, b});
  ASSERT_EQ(result.intervals.size(), 2u);
  for (const FleetInterval& iv : result.intervals) {
    EXPECT_GT(iv.duration_s, 0.05);  // no sliver interval survived
  }
  // Both streams run in both intervals (b is active until the collapsed
  // boundary).
  EXPECT_EQ(result.intervals[0].jobs.size(), 2u);
  EXPECT_EQ(result.intervals[1].jobs.size(), 2u);
}

TEST_F(DatacenterTest, ExactlyCoincidentBoundariesStillDedupe) {
  // The epsilon path must not disturb the exact-match case.
  const workload::WorkloadTrace a({{"x264", {2.0}, 2.0}});
  const workload::WorkloadTrace b({{"vips", {2.0}, 1.0},
                                   {"canneal", {3.0}, 1.0}});
  const std::vector<double> boundaries = fleet_interval_boundaries({a, b});
  ASSERT_EQ(boundaries.size(), 3u);
  EXPECT_EQ(boundaries[0], 0.0);
  EXPECT_EQ(boundaries[1], 1.0);
  EXPECT_EQ(boundaries[2], 2.0);
}

TEST_F(DatacenterTest, PlacementStateIsPerRunNotSharedAcrossFleets) {
  // Round-robin carries a cursor across dispatches *within* one run.  A
  // fresh policy is built per run, so reruns of one model are
  // bit-identical, and concurrent fleets cannot leak dispatch state into
  // each other.
  FleetConfig config = two_rack_fleet();
  const workload::WorkloadTrace trace({{"x264", {2.0}, 1.0}});
  const std::vector<workload::WorkloadTrace> streams{trace, trace, trace};

  util::ThreadPool::set_global_thread_count(2);
  core::SolveCache::global()->clear();
  FleetModel fleet(config);
  const FleetResult first = fleet.run(streams);
  const FleetResult second = fleet.run(streams);
  EXPECT_EQ(fleet_digest(first), fleet_digest(second));
  EXPECT_EQ(first.intervals[0].jobs[0].rack, 0u);   // cursor reset
  EXPECT_EQ(second.intervals[0].jobs[0].rack, 0u);  // not carried over

  // Two fleets running concurrently reproduce the isolated result bit for
  // bit: each run owns its policy instance.
  FleetResult r1, r2;
  std::thread t1([&] { r1 = FleetModel(config).run(streams); });
  std::thread t2([&] { r2 = FleetModel(config).run(streams); });
  t1.join();
  t2.join();
  EXPECT_EQ(fleet_digest(r1), fleet_digest(first));
  EXPECT_EQ(fleet_digest(r2), fleet_digest(first));
}

TEST_F(DatacenterTest, DispatchFollowsThePlacementPolicy) {
  // 4 identical single-phase streams over 2 racks x 2 servers.
  const workload::WorkloadTrace trace({{"x264", {2.0}, 2.0}});
  const std::vector<workload::WorkloadTrace> streams{trace, trace, trace,
                                                     trace};
  FleetConfig config = two_rack_fleet();
  config.placement = "round-robin";
  const FleetResult rr = FleetModel(config).run(streams);
  ASSERT_EQ(rr.intervals[0].jobs.size(), 4u);
  EXPECT_EQ(rr.intervals[0].jobs[0].rack, 0u);
  EXPECT_EQ(rr.intervals[0].jobs[1].rack, 1u);
  EXPECT_EQ(rr.intervals[0].jobs[2].rack, 0u);
  EXPECT_EQ(rr.intervals[0].jobs[3].rack, 1u);

  // Least-power balances identical jobs the same way (alternating racks).
  config.placement = "least-power";
  const FleetResult lp = FleetModel(config).run(streams);
  EXPECT_EQ(lp.intervals[0].jobs[0].rack, 0u);
  EXPECT_EQ(lp.intervals[0].jobs[1].rack, 1u);
  EXPECT_EQ(lp.intervals[0].racks[0].jobs, 2u);
  EXPECT_EQ(lp.intervals[0].racks[1].jobs, 2u);
}

// --------------------------------------------- determinism & persistence --

void expect_fleet_identical(const FleetResult& a, const FleetResult& b) {
  EXPECT_EQ(fleet_digest(a), fleet_digest(b));
  ASSERT_EQ(a.intervals.size(), b.intervals.size());
  for (std::size_t i = 0; i < a.intervals.size(); ++i) {
    SCOPED_TRACE("interval=" + std::to_string(i));
    // Bitwise, not near: the engine's contract is exactness.
    EXPECT_EQ(a.intervals[i].it_power_w, b.intervals[i].it_power_w);
    EXPECT_EQ(a.intervals[i].chiller_power_w, b.intervals[i].chiller_power_w);
    EXPECT_EQ(a.intervals[i].pue, b.intervals[i].pue);
    EXPECT_EQ(a.intervals[i].qos_violations, b.intervals[i].qos_violations);
    ASSERT_EQ(a.intervals[i].jobs.size(), b.intervals[i].jobs.size());
    for (std::size_t j = 0; j < a.intervals[i].jobs.size(); ++j) {
      EXPECT_EQ(a.intervals[i].jobs[j].rack, b.intervals[i].jobs[j].rack);
      EXPECT_EQ(a.intervals[i].jobs[j].die_max_c,
                b.intervals[i].jobs[j].die_max_c);
      EXPECT_EQ(a.intervals[i].jobs[j].tcase_c,
                b.intervals[i].jobs[j].tcase_c);
      EXPECT_EQ(a.intervals[i].jobs[j].max_supply_temp_c,
                b.intervals[i].jobs[j].max_supply_temp_c);
    }
  }
  EXPECT_EQ(a.total_it_energy_j, b.total_it_energy_j);
  EXPECT_EQ(a.avg_pue, b.avg_pue);
  EXPECT_EQ(a.qos_violations, b.qos_violations);
}

std::vector<workload::WorkloadTrace> mixed_streams() {
  return {workload::make_daily_trace(2.0), workload::make_stress_trace(3.0),
          workload::make_daily_trace(1.5)};
}

TEST_F(DatacenterTest, FleetBitIdenticalAcrossThreadCounts) {
  FleetConfig config = two_rack_fleet();
  config.placement = "thermal-headroom";

  util::ThreadPool::set_global_thread_count(1);
  core::SolveCache::global()->clear();
  const FleetResult serial = FleetModel(config).run(mixed_streams());

  for (const std::size_t threads : {2u, 4u}) {
    util::ThreadPool::set_global_thread_count(threads);
    core::SolveCache::global()->clear();  // recompute, don't replay bits
    SCOPED_TRACE("threads=" + std::to_string(threads));
    expect_fleet_identical(serial, FleetModel(config).run(mixed_streams()));
  }
}

TEST_F(DatacenterTest, FleetBitIdenticalColdVsSnapshotWarmedCache) {
  // A snapshot-warmed fleet sweep must reproduce the cold one bit for bit,
  // serving every solve from the loaded entries (0 misses).
  FleetConfig config = two_rack_fleet();
  util::ThreadPool::set_global_thread_count(2);
  core::SolveCache::global()->clear();
  const FleetResult cold = FleetModel(config).run(mixed_streams());

  const std::string path = ::testing::TempDir() + "tpcool_fleet_snap.bin";
  core::SolveCache::global()->save(path);
  core::SolveCache::global()->clear();
  core::SolveCache::global()->load(path);
  const FleetResult warm = FleetModel(config).run(mixed_streams());
  const core::SolveCache::Stats stats = core::SolveCache::global()->stats();
  EXPECT_EQ(stats.misses, 0u);
  EXPECT_GT(stats.hits, 0u);
  expect_fleet_identical(cold, warm);
  std::remove(path.c_str());
}

// -------------------------------------------------------- the §V rack plan --

/// One rack of `servers` proposed servers behind one chiller.
FleetConfig one_rack(std::size_t servers) {
  RackSpec rack;
  rack.servers = servers;
  rack.cell_size_m = kCell;
  FleetConfig config;
  config.racks = {rack};
  return config;
}

/// One single-phase stream per benchmark: a one-interval fleet run is the
/// paper's rack plan for those servers.
std::vector<workload::WorkloadTrace> one_phase_streams(
    const std::vector<std::string>& benchmarks) {
  std::vector<workload::WorkloadTrace> streams;
  for (const std::string& name : benchmarks) {
    streams.emplace_back(
        std::vector<workload::TracePhase>{{name, {2.0}, 1.0}});
  }
  return streams;
}

/// The reference a fleet run must match for one rack's servers: every
/// solve a plain, uncached ServerModel built from server_config_for,
/// serial, with no cache and no pool anywhere.  Highest feasible supply
/// per server, the shared loop over those demands, then every server at
/// the shared setpoint.
struct PlainRackPlan {
  std::vector<cooling::ServerDemand> demands;  ///< Feasible servers only.
  std::vector<std::size_t> scanned;            ///< Candidates solved.
  cooling::RackCoolingState cooling;
  std::vector<core::SimulationResult> at_setpoint;
};

PlainRackPlan plain_rack_plan(const RackSpec& spec,
                              const std::vector<std::string>& names) {
  const double design_flow =
      core::server_config_for(spec.approach, spec.cell_size_m)
          .operating_point.water_flow_kg_h;
  const core::Scheduler scheduler(spec.approach);
  std::vector<core::ScheduleDecision> decisions;
  for (const std::string& name : names) {
    decisions.push_back(scheduler.schedule(
        workload::find_benchmark(name), workload::QoSRequirement{2.0}));
  }
  const auto plain_solve = [&](std::size_t i, double t_w) {
    core::ServerModel server(
        core::server_config_for(spec.approach, spec.cell_size_m));
    server.set_operating_point(
        {.water_flow_kg_h = design_flow, .water_inlet_c = t_w});
    return server.simulate(workload::find_benchmark(names[i]),
                           decisions[i].point.config, decisions[i].cores,
                           decisions[i].idle_state);
  };

  PlainRackPlan plan;
  for (std::size_t i = 0; i < names.size(); ++i) {
    plan.scanned.push_back(0);
    for (const double t_w : spec.supply_candidates_c) {
      const core::SimulationResult sim = plain_solve(i, t_w);
      ++plan.scanned.back();
      if (sim.tcase_c <= spec.tcase_limit_c) {
        plan.demands.push_back({sim.total_power_w, t_w, design_flow});
        break;
      }
    }
  }
  if (plan.demands.size() != names.size()) return plan;  // callers assert
  plan.cooling = cooling::solve_rack_cooling(plan.demands, spec.chiller);
  for (std::size_t i = 0; i < names.size(); ++i) {
    plan.at_setpoint.push_back(plain_solve(i, plan.cooling.supply_temp_c));
  }
  return plan;
}

TEST_F(DatacenterTest, OneRackFleetBitIdenticalToPlainSolves) {
  const std::vector<std::string> names{"x264", "canneal", "swaptions"};
  const FleetConfig config = one_rack(names.size());
  const PlainRackPlan plan = plain_rack_plan(config.racks[0], names);
  ASSERT_EQ(plan.demands.size(), names.size());  // every server feasible
  const cooling::RackCoolingState& reference = plan.cooling;

  for (const std::size_t threads : {1u, 4u}) {
    SCOPED_TRACE("threads=" + std::to_string(threads));
    util::ThreadPool::set_global_thread_count(threads);
    core::SolveCache::global()->clear();
    const FleetResult result =
        FleetModel(config).run(one_phase_streams(names));
    ASSERT_EQ(result.intervals.size(), 1u);
    const FleetInterval& iv = result.intervals[0];
    ASSERT_EQ(iv.jobs.size(), names.size());
    double min_supply = cooling::kDefaultMaxSetpointC;
    for (std::size_t i = 0; i < names.size(); ++i) {
      SCOPED_TRACE("server=" + names[i]);
      const JobOutcome& job = iv.jobs[i];
      EXPECT_EQ(job.benchmark, names[i]);
      // Bitwise: caching, server reuse and threads must be unobservable.
      EXPECT_EQ(job.max_supply_temp_c, plan.demands[i].max_supply_temp_c);
      EXPECT_EQ(job.die_max_c, plan.at_setpoint[i].die.max_c);
      EXPECT_EQ(job.package_power_w, plan.at_setpoint[i].total_power_w);
      EXPECT_FALSE(job.tcase_limit_exceeded);
      min_supply = std::min(min_supply, job.max_supply_temp_c);
    }
    const cooling::RackCoolingState& cooling = iv.racks[0].cooling;
    EXPECT_EQ(cooling.supply_temp_c, reference.supply_temp_c);
    EXPECT_EQ(cooling.return_temp_c, reference.return_temp_c);
    EXPECT_EQ(cooling.total_flow_kg_h, reference.total_flow_kg_h);
    EXPECT_EQ(cooling.total_heat_w, reference.total_heat_w);
    EXPECT_EQ(cooling.chiller_lift_power_w, reference.chiller_lift_power_w);
    EXPECT_EQ(cooling.chiller_electrical_w, reference.chiller_electrical_w);
    // The shared setpoint is the minimum over servers, and feasible.
    EXPECT_EQ(cooling.supply_temp_c, min_supply);
    EXPECT_GT(cooling.return_temp_c, cooling.supply_temp_c);
    EXPECT_GT(cooling.chiller_electrical_w, 0.0);
  }
}

/// The count after `"key":` in a JSONL record.
std::size_t jsonl_count(const std::string& record, const std::string& key) {
  const std::size_t pos = record.find("\"" + key + "\":");
  EXPECT_NE(pos, std::string::npos) << key;
  return pos == std::string::npos
             ? 0
             : std::stoul(record.substr(pos + key.size() + 3));
}

TEST_F(DatacenterTest, SharedScansOnlyAmongInterchangeableRacks) {
  // Four racks of one approach.  Rack 1 scans other supply candidates,
  // rack 2 has a lower TCASE limit and rack 3 runs on a coarser grid, so
  // none may share rack 0's scans or solves (rack 3 shares only the
  // approach's scheduler); within a rack, the duplicate benchmarks do
  // share them.
  FleetConfig config = one_rack(4);
  config.racks.resize(4, config.racks[0]);
  config.racks[1].supply_candidates_c = {38.0, 33.0, 28.0};
  config.racks[2].tcase_limit_c = 45.5;
  config.racks[3].cell_size_m = 3.0e-3;
  // Round-robin places stream j on rack j % 4, so every rack runs x264
  // twice, then canneal twice.
  std::vector<std::string> names(8, "x264");
  names.resize(16, "canneal");

  std::vector<PlainRackPlan> plans;
  std::size_t requests = 0;
  for (std::size_t r = 0; r < config.racks.size(); ++r) {
    std::vector<std::string> rack_names;
    for (std::size_t j = r; j < names.size(); j += config.racks.size()) {
      rack_names.push_back(names[j]);
    }
    plans.push_back(plain_rack_plan(config.racks[r], rack_names));
    ASSERT_EQ(plans[r].demands.size(), rack_names.size());
    for (const std::size_t scanned : plans[r].scanned) {
      requests += scanned + 1;
    }
  }
  // The test is only sharp where a shared scan would change an outcome.
  ASSERT_NE(plans[1].demands[0].max_supply_temp_c,
            plans[0].demands[0].max_supply_temp_c);
  ASSERT_NE(plans[2].demands[0].max_supply_temp_c,
            plans[0].demands[0].max_supply_temp_c);
  ASSERT_NE(plans[3].at_setpoint[0].die.max_c,
            plans[0].at_setpoint[0].die.max_c);

  for (const std::size_t threads : {1u, 4u}) {
    SCOPED_TRACE("threads=" + std::to_string(threads));
    util::ThreadPool::set_global_thread_count(threads);
    core::SolveCache::global()->clear();
    std::ostringstream jsonl;
    JsonlFleetSink sink(jsonl);
    FleetResultAggregator aggregator;
    StreamingFleetEngine engine(config, one_phase_streams(names));
    engine.add_observer(sink);
    engine.add_observer(aggregator);
    engine.run();

    const FleetResult& result = aggregator.result();
    ASSERT_EQ(result.intervals.size(), 1u);
    const FleetInterval& iv = result.intervals[0];
    ASSERT_EQ(iv.jobs.size(), names.size());
    for (std::size_t j = 0; j < names.size(); ++j) {
      SCOPED_TRACE("job=" + std::to_string(j));
      const std::size_t r = j % config.racks.size();
      const std::size_t i = j / config.racks.size();
      const JobOutcome& job = iv.jobs[j];
      ASSERT_EQ(job.rack, r);
      EXPECT_EQ(job.max_supply_temp_c, plans[r].demands[i].max_supply_temp_c);
      EXPECT_EQ(job.die_max_c, plans[r].at_setpoint[i].die.max_c);
      EXPECT_EQ(job.package_power_w, plans[r].at_setpoint[i].total_power_w);
      EXPECT_EQ(job.tcase_c, plans[r].at_setpoint[i].tcase_c);
      EXPECT_FALSE(job.tcase_limit_exceeded);
    }
    for (std::size_t r = 0; r < config.racks.size(); ++r) {
      EXPECT_EQ(iv.racks[r].cooling.supply_temp_c,
                plans[r].cooling.supply_temp_c);
      EXPECT_EQ(iv.racks[r].cooling.chiller_electrical_w,
                plans[r].cooling.chiller_electrical_w);
    }

    // The stream counts every request a per-job scan asks; the cache saw
    // strictly fewer lookups.
    const std::string text = jsonl.str();
    const std::string summary =
        text.substr(text.rfind("{\"type\":\"summary\""));
    EXPECT_EQ(jsonl_count(summary, "solves") + jsonl_count(summary, "hits"),
              requests);
    const core::SolveCache::Stats stats = core::SolveCache::global()->stats();
    EXPECT_EQ(stats.misses, jsonl_count(summary, "solves"));
    EXPECT_LT(stats.hits + stats.misses, requests);
  }
}

TEST_F(DatacenterTest, HeavierRackNeedsMorePower) {
  const auto plan = [](const std::vector<std::string>& names) {
    return FleetModel(one_rack(3)).run(one_phase_streams(names))
        .intervals[0].racks[0].cooling;
  };
  const cooling::RackCoolingState small = plan({"canneal"});
  const cooling::RackCoolingState large = plan({"canneal", "x264", "facesim"});
  EXPECT_GT(large.total_heat_w, small.total_heat_w);
  EXPECT_GE(large.chiller_electrical_w, small.chiller_electrical_w);
}

// ------------------------------------------------- QoS-violation plumbing --

TEST_F(DatacenterTest, TcaseLimitExceededPropagatesIntoQoSViolations) {
  // A limit below any reachable case temperature: the transient engine
  // flags the trajectory, and the same condition surfaces in the steady
  // fleet it ran under as per-job tcase_limit_exceeded and a nonzero
  // QoS-violation count.
  constexpr double kImpossibleLimitC = 30.0;
  const workload::WorkloadTrace hot({{"x264", {1.0}, 2.0}});

  FleetConfig config = two_rack_fleet();
  for (RackSpec& rack : config.racks) rack.tcase_limit_c = kImpossibleLimitC;
  const TransientFleetResult transient =
      TransientFleetEngine(config, {}).run({hot});
  ASSERT_GE(transient.qos_violations, 1u);

  const FleetResult& fleet = transient.steady;
  ASSERT_EQ(fleet.intervals.size(), 1u);
  ASSERT_EQ(fleet.intervals[0].jobs.size(), 1u);
  EXPECT_TRUE(fleet.intervals[0].jobs[0].tcase_limit_exceeded);
  // The infeasible server pins to the coldest supply candidate.
  EXPECT_DOUBLE_EQ(fleet.intervals[0].jobs[0].max_supply_temp_c,
                   config.racks[0].supply_candidates_c.back());
  EXPECT_EQ(fleet.intervals[0].qos_violations, 1u);
  EXPECT_EQ(fleet.qos_violations, 1u);
  // Headroom goes negative: the placement policy will steer away.
  EXPECT_LT(fleet.intervals[0].racks[0].headroom_c, 0.0);
}

TEST_F(DatacenterTest, FeasibleFleetReportsNoViolations) {
  FleetModel fleet(two_rack_fleet());  // default 85 C limit
  const FleetResult result = fleet.run(mixed_streams());
  EXPECT_EQ(result.qos_violations, 0u);
  for (const FleetInterval& iv : result.intervals) {
    for (const JobOutcome& job : iv.jobs) {
      EXPECT_FALSE(job.tcase_limit_exceeded);
      EXPECT_LE(job.tcase_c, 85.0);
      EXPECT_GE(job.die_max_c, job.tcase_c);  // die is always hotter
    }
  }
}

// ------------------------------------------------------ windowed placement --

TEST_F(DatacenterTest, WindowedLookaheadNeverWorseThanGreedyOnViolations) {
  // Regression-pinned fixture: rack 0's TCASE limit sits between the
  // tight-QoS jobs' pinned-coldest case temperature (~38.9 C) and the
  // loose-QoS jobs' (~26.6 C), so a tight job placed on rack 0 violates
  // every time.  Greedy least-power starts each interval from zero
  // estimated power and walks the same tie-break onto rack 0; the
  // lookahead policy sees rack 0's thermal deficit from the previous
  // interval and steers the tight jobs to rack 1.
  FleetConfig config = two_rack_fleet();
  config.racks[0].tcase_limit_c = 30.0;
  std::vector<workload::WorkloadTrace> streams;
  for (const double factor : {1.0, 1.0, 3.0, 3.0}) {
    streams.emplace_back(std::vector<workload::TracePhase>(
        6, {"x264", {factor}, 2.0}));
  }

  FleetConfig greedy = config;
  greedy.placement = "least-power";
  const FleetResult greedy_result = FleetModel(greedy).run(streams);
  FleetConfig windowed = config;
  windowed.placement = "windowed";
  const FleetResult windowed_result = FleetModel(windowed).run(streams);

  EXPECT_LE(windowed_result.qos_violations, greedy_result.qos_violations);
  // Pinned: greedy violates every interval, lookahead only where the
  // deficit has not yet been observed.
  EXPECT_EQ(greedy_result.qos_violations, 6u);
  EXPECT_EQ(windowed_result.qos_violations, 3u);
}

}  // namespace
}  // namespace tpcool::datacenter
