#include "tpcool/datacenter/placement.hpp"

#include <algorithm>
#include <string>

#include "tpcool/util/error.hpp"

namespace tpcool::datacenter {

void PlacementPolicy::require_open(bool found) {
  TPCOOL_REQUIRE(found, "placement needs at least one non-full rack");
}

std::size_t RoundRobinPlacement::select_rack(
    const JobRequest& job, const std::vector<RackLoad>& racks) {
  (void)job;
  TPCOOL_REQUIRE(!racks.empty(), "placement needs at least one rack");
  for (std::size_t probe = 0; probe < racks.size(); ++probe) {
    const std::size_t candidate = (cursor_ + probe) % racks.size();
    if (!racks[candidate].full()) {
      cursor_ = candidate + 1;
      return candidate;
    }
  }
  require_open(false);
  return 0;  // unreachable
}

std::size_t LeastPowerPlacement::select_rack(
    const JobRequest& job, const std::vector<RackLoad>& racks) {
  (void)job;
  return argmin_open_rack(racks, [](const RackLoad& rack) {
    return rack.est_power_w;
  });
}

std::size_t ThermalHeadroomPlacement::select_rack(
    const JobRequest& job, const std::vector<RackLoad>& racks) {
  (void)job;
  // Most headroom first; break headroom ties by emptiest rack so the
  // historyless first interval degrades to least-loaded, not rack 0; then
  // lowest index.  Truly lexicographic — a weighted sum like
  // -headroom * 1e6 + assigned flips the priority once two racks'
  // headrooms differ by less than assigned / 1e6.
  const RackLoad* best = nullptr;
  for (const RackLoad& rack : racks) {
    if (rack.full()) continue;
    if (best == nullptr || rack.headroom_c > best->headroom_c ||
        (rack.headroom_c == best->headroom_c &&
         rack.assigned < best->assigned)) {
      best = &rack;
    }
  }
  require_open(best != nullptr);
  return best->rack;
}

void WindowedPlacement::begin_run(const PlacementTimeline& timeline) {
  interval_ = 0;
  projected_.clear();
  stream_power_.clear();
  const std::vector<workload::WorkloadTrace>& streams = *timeline.streams;
  const std::vector<double>& boundaries = *timeline.boundaries;
  const std::size_t intervals =
      boundaries.size() < 2 ? 0 : boundaries.size() - 1;
  // The same estimate the engine uses at dispatch time, tabulated for the
  // whole (already known) timeline: stream s contributes
  // stream_power_[s][i] to whichever rack it lands on in interval i.
  stream_power_.assign(streams.size(), std::vector<double>(intervals, 0.0));
  for (std::size_t s = 0; s < streams.size(); ++s) {
    for (std::size_t i = 0; i < intervals; ++i) {
      if (boundaries[i] >= streams[s].total_duration_s()) continue;
      const workload::TracePhase& phase = streams[s].phase_at(boundaries[i]);
      stream_power_[s][i] = job_power_estimate(
          workload::find_benchmark(phase.benchmark), phase.qos);
    }
  }
}

void WindowedPlacement::begin_interval(std::size_t interval) {
  interval_ = interval;
  for (std::vector<double>& rack : projected_) {
    std::fill(rack.begin(), rack.end(), 0.0);
  }
}

std::size_t WindowedPlacement::select_rack(const JobRequest& job,
                                           const std::vector<RackLoad>& racks) {
  if (projected_.size() != racks.size()) {
    projected_.assign(racks.size(), std::vector<double>(kWindow, 0.0));
  }

  // Future power this job itself brings to whichever rack it lands on.
  std::vector<double> job_future(kWindow, 0.0);
  job_future[0] = job.est_power_w;
  if (job.stream < stream_power_.size()) {
    const std::vector<double>& power = stream_power_[job.stream];
    for (std::size_t w = 1; w < kWindow; ++w) {
      if (interval_ + w < power.size()) job_future[w] = power[interval_ + w];
    }
  }

  const std::size_t chosen = argmin_open_rack(racks, [&](const RackLoad&
                                                             rack) {
    // Discounted projected load over the window if the job lands here,
    // scaled by a thermal-deficit penalty: a rack that ended the previous
    // interval over its TCASE limit multiplies its cost by
    // (1 + deficit °C), steering heat away until the deficit clears.
    double load = rack.est_power_w + job_future[0];
    double discount = 1.0;
    for (std::size_t w = 1; w < kWindow; ++w) {
      discount *= kDiscount;
      load += discount * (projected_[rack.rack][w] + job_future[w]);
    }
    const double deficit = std::max(0.0, -rack.headroom_c);
    return load * (1.0 + kPenaltyPerDegC * deficit);
  });

  // Commit this placement's future load so the rest of the interval's
  // dispatch sequence sees it (joint within-interval lookahead).
  for (std::size_t w = 1; w < kWindow; ++w) {
    projected_[chosen][w] += job_future[w];
  }
  return chosen;
}

const std::vector<std::string>& placement_policy_names() {
  static const std::vector<std::string> names{
      "round-robin", "least-power", "thermal-headroom", "windowed"};
  return names;
}

std::unique_ptr<PlacementPolicy> make_placement_policy(
    const std::string& name) {
  if (name == "round-robin") return std::make_unique<RoundRobinPlacement>();
  if (name == "least-power") return std::make_unique<LeastPowerPlacement>();
  if (name == "thermal-headroom") {
    return std::make_unique<ThermalHeadroomPlacement>();
  }
  if (name == "windowed") return std::make_unique<WindowedPlacement>();
  TPCOOL_REQUIRE(false, "unknown placement policy '" + name +
                            "' (known: round-robin, least-power, "
                            "thermal-headroom, windowed)");
  return nullptr;  // unreachable
}

double job_power_estimate(const workload::BenchmarkProfile& bench,
                          const workload::QoSRequirement& qos) {
  TPCOOL_REQUIRE(qos.factor >= 1.0, "QoS factor below 1x");
  // Full-load switching weight, discounted by the QoS slack the scheduler
  // will trade for lower power.  Units are arbitrary: policies only
  // compare sums of these across racks.
  return bench.c_eff_w_per_ghz_v2 * bench.smt_yield / qos.factor;
}

}  // namespace tpcool::datacenter
