#include "tpcool/workload/profiler.hpp"

#include "tpcool/util/error.hpp"

namespace tpcool::workload {

Profiler::Profiler(const power::PackagePowerModel& power_model)
    : power_model_(&power_model) {}

power::PackagePowerRequest Profiler::request_for(
    const BenchmarkProfile& bench, const Configuration& config,
    power::CState idle_state) const {
  TPCOOL_REQUIRE(
      config.cores <=
          static_cast<int>(power_model_->floorplan().core_count()),
      "configuration uses more cores than the CPU has");
  power::PackagePowerRequest req;
  req.active_cores.resize(static_cast<std::size_t>(config.cores));
  for (int i = 0; i < config.cores; ++i) req.active_cores[i] = i + 1;
  req.c_eff_w_per_ghz_v2 = bench.c_eff_w_per_ghz_v2;
  req.utilization = core_utilization(bench, config);
  req.freq_ghz = config.freq_ghz;
  req.idle_state = idle_state;
  req.llc_activity = bench.mem_intensity;
  return req;
}

std::vector<ConfigPoint> Profiler::profile(const BenchmarkProfile& bench,
                                           power::CState idle_state) const {
  const int max_cores =
      static_cast<int>(power_model_->floorplan().core_count());
  std::vector<ConfigPoint> points;
  for (const Configuration& config : configuration_space(max_cores)) {
    ConfigPoint p;
    p.config = config;
    p.breakdown =
        power_model_->breakdown(request_for(bench, config, idle_state));
    p.power_w = p.breakdown.total_w();
    p.norm_time = normalized_exec_time(bench, config);
    points.push_back(p);
  }
  return points;
}

std::pair<double, double> Profiler::package_power_range(
    power::CState idle_state) const {
  double lo = 0.0, hi = 0.0;
  bool first = true;
  for (const BenchmarkProfile& bench : parsec_benchmarks()) {
    for (const ConfigPoint& p : profile(bench, idle_state)) {
      if (first || p.power_w < lo) lo = p.power_w;
      if (first || p.power_w > hi) hi = p.power_w;
      first = false;
    }
  }
  return {lo, hi};
}

}  // namespace tpcool::workload
