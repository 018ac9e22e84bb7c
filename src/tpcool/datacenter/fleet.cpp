#include "tpcool/datacenter/fleet.hpp"

#include <algorithm>
#include <cmath>
#include <functional>
#include <utility>

#include "tpcool/datacenter/streaming.hpp"
#include "tpcool/util/error.hpp"
#include "tpcool/util/fnv.hpp"

namespace tpcool::datacenter {

void validate_fleet_config(const FleetConfig& config) {
  TPCOOL_REQUIRE(!config.racks.empty(), "fleet needs at least one rack");
  for (const RackSpec& rack : config.racks) {
    TPCOOL_REQUIRE(rack.servers >= 1, "rack needs at least one server");
    TPCOOL_REQUIRE(!rack.supply_candidates_c.empty(),
                   "rack needs supply-temperature candidates");
    // No comparison with NaN is true, so the descent check below would
    // pass a NaN candidate; check finiteness first.
    TPCOOL_REQUIRE(std::all_of(rack.supply_candidates_c.begin(),
                               rack.supply_candidates_c.end(),
                               [](double t) { return std::isfinite(t); }),
                   "rack supply-temperature candidates must be finite");
    TPCOOL_REQUIRE(std::adjacent_find(rack.supply_candidates_c.begin(),
                                      rack.supply_candidates_c.end(),
                                      std::less_equal<>()) ==
                       rack.supply_candidates_c.end(),
                   "rack supply-temperature candidates must be strictly "
                   "descending");
    TPCOOL_REQUIRE(std::isfinite(rack.tcase_limit_c),
                   "rack TCASE limit must be finite");
    TPCOOL_REQUIRE(rack.cell_size_m > 0.0, "cell size must be positive");
    // The chiller is fixed for the run, so a bad one fails here and not
    // at the first interval, deep inside the COP or PUE arithmetic.
    const cooling::ChillerModel& chiller = rack.chiller;
    TPCOOL_REQUIRE(
        std::isfinite(chiller.ambient_c) && std::isfinite(chiller.approach_k),
        "rack chiller ambient and approach must be finite");
    TPCOOL_REQUIRE(
        chiller.second_law_eff > 0.0 && chiller.second_law_eff <= 1.0,
        "rack chiller second-law efficiency must be in (0, 1]");
    TPCOOL_REQUIRE(std::isfinite(chiller.pump_overhead_w) &&
                       chiller.pump_overhead_w >= 0.0,
                   "rack chiller pump overhead must be finite and nonnegative");
    // ChillerModel::cop clamps to [0.5, max_cop].
    TPCOOL_REQUIRE(std::isfinite(chiller.max_cop) && chiller.max_cop >= 0.5,
                   "rack chiller max COP must be finite and >= 0.5");
  }
  // Validate the policy name at construction, not first run.
  (void)make_placement_policy(config.placement);
}

FleetModel::FleetModel(FleetConfig config) : config_(std::move(config)) {
  validate_fleet_config(config_);
}

FleetResult FleetModel::run(
    const std::vector<workload::WorkloadTrace>& streams) {
  // The engine owns the entire interval computation (it is the one code
  // path for batch and streaming); aggregating its stream rebuilds the
  // batch result bit-for-bit.
  StreamingFleetEngine engine(config_, streams);
  FleetResultAggregator aggregator;
  engine.add_observer(aggregator);
  engine.run();
  return aggregator.take();
}

std::vector<double> fleet_interval_boundaries(
    const std::vector<workload::WorkloadTrace>& streams) {
  // Boundaries are the streams' own cumulative sums, so "is this stream
  // still active at b" compares doubles that came from the same additions
  // — exact, machine-independent arithmetic *within* a stream.  Across
  // streams, sums of nominally equal durations can disagree by ULPs
  // (0.1 + 0.2 != 0.3); exact dedupe would keep both variants and emit a
  // sliver interval between them.
  std::vector<double> boundaries{0.0};
  for (const workload::WorkloadTrace& stream : streams) {
    double end = 0.0;
    for (const workload::TracePhase& phase : stream.phases()) {
      end += phase.duration_s;
      boundaries.push_back(end);
    }
  }
  std::sort(boundaries.begin(), boundaries.end());

  // Collapse each epsilon-cluster to its LARGEST member.  Keeping the max
  // means a stream whose own cumulative sum is the smaller variant tests
  // `start >= total_duration` as finished (no resurrection for a sliver),
  // and a stream whose sum is the larger variant sees its exact own value,
  // so phase_at lands in the correct phase either way.
  constexpr double kRelEps = 1.0e-12;
  std::vector<double> deduped;
  deduped.reserve(boundaries.size());
  for (const double b : boundaries) {
    if (!deduped.empty()) {
      const double prev = deduped.back();
      const double scale = std::max({1.0, std::abs(prev), std::abs(b)});
      if (b - prev <= kRelEps * scale) {
        deduped.back() = b;  // same cluster: keep the larger variant
        continue;
      }
    }
    deduped.push_back(b);
  }
  return deduped;
}

std::uint64_t fleet_digest(const FleetResult& result) {
  using util::fnv_f64;
  using util::fnv_u64;
  std::uint64_t digest = util::kFnvOffsetBasis;
  fnv_u64(digest, result.intervals.size());
  for (const FleetInterval& interval : result.intervals) {
    fnv_f64(digest, interval.start_s);
    fnv_f64(digest, interval.duration_s);
    fnv_f64(digest, interval.it_power_w);
    fnv_f64(digest, interval.chiller_power_w);
    fnv_f64(digest, interval.pue);
    fnv_u64(digest, interval.qos_violations);
    for (const JobOutcome& job : interval.jobs) {
      fnv_u64(digest, job.stream);
      fnv_u64(digest, job.rack);
      fnv_f64(digest, job.qos_factor);
      fnv_f64(digest, job.package_power_w);
      fnv_f64(digest, job.max_supply_temp_c);
      fnv_f64(digest, job.die_max_c);
      fnv_f64(digest, job.tcase_c);
      fnv_u64(digest, job.tcase_limit_exceeded ? 1 : 0);
    }
    for (const RackInterval& rack : interval.racks) {
      fnv_u64(digest, rack.jobs);
      fnv_f64(digest, rack.it_power_w);
      fnv_f64(digest, rack.headroom_c);
      fnv_f64(digest, rack.cooling.supply_temp_c);
      fnv_f64(digest, rack.cooling.return_temp_c);
      fnv_f64(digest, rack.cooling.chiller_electrical_w);
    }
    // Controller-off intervals fold a bare 0, so uncontrolled digests are
    // a pure function of the physics fields.
    fnv_u64(digest, interval.control.active ? 1 : 0);
    if (interval.control.active) {
      fnv_f64(digest, interval.control.target);
      fnv_f64(digest, interval.control.error);
      for (const double bias : interval.control.rack_bias_c) {
        fnv_f64(digest, bias);
      }
    }
  }
  fnv_f64(digest, result.total_it_energy_j);
  fnv_f64(digest, result.total_chiller_energy_j);
  fnv_f64(digest, result.total_facility_energy_j);
  fnv_f64(digest, result.avg_pue);
  fnv_u64(digest, result.qos_violations);
  return digest;
}

FleetConfig make_heterogeneous_fleet(std::size_t racks,
                                     std::size_t servers_per_rack,
                                     double cell_size_m) {
  TPCOOL_REQUIRE(racks >= 1, "fleet needs at least one rack");
  constexpr core::Approach kCycle[] = {core::Approach::kProposed,
                                       core::Approach::kSoaBalancing,
                                       core::Approach::kSoaInletFirst};
  FleetConfig config;
  config.racks.reserve(racks);
  for (std::size_t r = 0; r < racks; ++r) {
    RackSpec spec;
    spec.name = "rack" + std::to_string(r);
    spec.approach = kCycle[r % 3];
    spec.servers = servers_per_rack;
    spec.cell_size_m = cell_size_m;
    // Stagger the heat-rejection ambients so racks differ beyond their
    // approach (affects chiller COP only, never a cached solve).
    spec.chiller.ambient_c = 35.0 + 0.5 * static_cast<double>(r % 4);
    config.racks.push_back(std::move(spec));
  }
  return config;
}

}  // namespace tpcool::datacenter
