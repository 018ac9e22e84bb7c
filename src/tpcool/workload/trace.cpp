#include "tpcool/workload/trace.hpp"

#include <algorithm>
#include <cmath>

#include "tpcool/util/error.hpp"

namespace tpcool::workload {

WorkloadTrace::WorkloadTrace(std::vector<TracePhase> phases)
    : phases_(std::move(phases)) {
  TPCOOL_REQUIRE(!phases_.empty(), "trace needs at least one phase");
  end_times_.reserve(phases_.size());
  for (const TracePhase& phase : phases_) {
    TPCOOL_REQUIRE(std::isfinite(phase.duration_s) && phase.duration_s > 0.0,
                   "phase duration must be positive and finite");
    TPCOOL_REQUIRE(std::isfinite(phase.qos.factor) && phase.qos.factor >= 1.0,
                   "QoS factor must be finite and at least 1x");
    (void)find_benchmark(phase.benchmark);  // validates the name
    total_s_ += phase.duration_s;
    TPCOOL_REQUIRE(std::isfinite(total_s_), "trace duration must be finite");
    end_times_.push_back(total_s_);
  }
}

std::size_t WorkloadTrace::phase_index_at(double time_s) const {
  TPCOOL_REQUIRE(time_s >= 0.0, "negative time");
  const auto it =
      std::upper_bound(end_times_.begin(), end_times_.end(), time_s);
  if (it == end_times_.end()) return phases_.size() - 1;
  return static_cast<std::size_t>(it - end_times_.begin());
}

const TracePhase& WorkloadTrace::phase_at(double time_s) const {
  return phases_[phase_index_at(time_s)];
}

WorkloadTrace make_daily_trace(double scale_duration_s) {
  TPCOOL_REQUIRE(scale_duration_s > 0.0, "scale must be positive");
  const double t = scale_duration_s;
  return WorkloadTrace({
      {"streamcluster", {3.0}, 2.0 * t},  // overnight batch
      {"x264", {1.0}, 1.0 * t},           // morning interactive burst
      {"ferret", {2.0}, 1.5 * t},         // daytime mixed
      {"facesim", {1.0}, 1.0 * t},        // latency-critical spike
      {"vips", {2.0}, 1.5 * t},           // afternoon mixed
      {"canneal", {3.0}, 2.0 * t},        // evening batch
  });
}

WorkloadTrace make_stress_trace(double scale_duration_s) {
  TPCOOL_REQUIRE(scale_duration_s > 0.0, "scale must be positive");
  const double t = scale_duration_s;
  return WorkloadTrace({
      {"x264", {1.0}, 1.5 * t},
      {"blackscholes", {3.0}, 0.5 * t},
      {"facesim", {1.0}, 1.5 * t},
      {"canneal", {3.0}, 0.5 * t},
      {"x264", {1.0}, 1.5 * t},
  });
}

}  // namespace tpcool::workload
