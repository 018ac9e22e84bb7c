#pragma once
/// \file trace.hpp
/// \brief Workload phase traces: a timeline of (benchmark, QoS, duration)
///        phases driving the transient controller — the "different workload
///        performance requirements" the thermosyphon must adapt to at
///        runtime (§I, §VII).

#include <string>
#include <vector>

#include "tpcool/workload/benchmark.hpp"
#include "tpcool/workload/configuration.hpp"

namespace tpcool::workload {

/// One phase of a workload trace.
struct TracePhase {
  std::string benchmark;        ///< PARSEC benchmark name.
  QoSRequirement qos{2.0};
  double duration_s = 10.0;
};

/// A validated timeline of phases.
class WorkloadTrace {
 public:
  explicit WorkloadTrace(std::vector<TracePhase> phases);

  [[nodiscard]] const std::vector<TracePhase>& phases() const noexcept {
    return phases_;
  }
  [[nodiscard]] std::size_t phase_count() const noexcept {
    return phases_.size();
  }
  [[nodiscard]] double total_duration_s() const noexcept { return total_s_; }

  /// Phase active at absolute time t (clamped to the last phase).
  [[nodiscard]] const TracePhase& phase_at(double time_s) const;

  /// Index of the phase active at time t.
  [[nodiscard]] std::size_t phase_index_at(double time_s) const;

  /// The profile `phases()[phase]` names, resolved once at construction
  /// (an entry of `parsec_benchmarks()`, so the reference outlives the
  /// trace).
  [[nodiscard]] const BenchmarkProfile& profile(std::size_t phase) const {
    return *profiles_[phase];
  }

 private:
  std::vector<TracePhase> phases_;
  std::vector<const BenchmarkProfile*> profiles_;
  std::vector<double> end_times_;
  double total_s_ = 0.0;
};

/// A representative daily pattern: interactive bursts (tight QoS) between
/// batch stretches (relaxed QoS). Deterministic.
[[nodiscard]] WorkloadTrace make_daily_trace(double scale_duration_s = 10.0);

/// A thermal stress pattern: alternating worst-case and light phases, built
/// to exercise the runtime controller's emergency reactions.
[[nodiscard]] WorkloadTrace make_stress_trace(double scale_duration_s = 10.0);

}  // namespace tpcool::workload
