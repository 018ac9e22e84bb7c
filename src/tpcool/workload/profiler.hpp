#pragma once
/// \file profiler.hpp
/// \brief The offline profiling step of Algorithm 1: build the P (power) and
///        Q (QoS) vectors over the configuration space for a benchmark.

#include <vector>

#include "tpcool/power/package_power.hpp"
#include "tpcool/workload/benchmark.hpp"
#include "tpcool/workload/configuration.hpp"
#include "tpcool/workload/performance_model.hpp"

namespace tpcool::workload {

/// One profiled configuration: the paper's P(Nc,Nt,f) and Q(Nc,Nt,f).
struct ConfigPoint {
  Configuration config;
  double power_w = 0.0;          ///< Package power in this configuration.
  double norm_time = 0.0;        ///< Execution time / baseline.
  power::PackagePowerBreakdown breakdown;
};

/// Profiler bound to a package power model (the floorplan defines the core
/// count). The model must outlive the profiler.
class Profiler {
 public:
  explicit Profiler(const power::PackagePowerModel& power_model);

  /// Profile every configuration for a benchmark, with idle cores at
  /// `idle_state`. Power does not depend on *which* cores run, only on how
  /// many, so the profile is mapping-independent (as in the paper).
  [[nodiscard]] std::vector<ConfigPoint> profile(
      const BenchmarkProfile& bench, power::CState idle_state) const;

  /// Package power request for one (benchmark, configuration) pair.
  [[nodiscard]] power::PackagePowerRequest request_for(
      const BenchmarkProfile& bench, const Configuration& config,
      power::CState idle_state) const;

  /// Min/max package power across all benchmarks and configurations
  /// (paper §V: 40.5–79.3 W). Idle cores at `idle_state`.
  [[nodiscard]] std::pair<double, double> package_power_range(
      power::CState idle_state) const;

 private:
  const power::PackagePowerModel* power_model_;
};

}  // namespace tpcool::workload
