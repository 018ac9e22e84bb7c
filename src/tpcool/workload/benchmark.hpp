#pragma once
/// \file benchmark.hpp
/// \brief Synthetic PARSEC 3.0 workload profiles.
///
/// The paper profiles the 13 PARSEC benchmarks on the physical Xeon with
/// RAPL (power) and wall-clock timing (QoS).  We replace the measurements
/// with a compact per-benchmark characterization — switching capacitance,
/// SMT yield, Amdahl serial fraction, scaling exponent, memory intensity —
/// calibrated so the published aggregates hold: package power spans
/// ≈ 40.5–79.3 W across all configurations (§V) and the normalized
/// execution times match the spread of Fig. 3.

#include <string>
#include <vector>

namespace tpcool::workload {

/// Per-benchmark model parameters.
struct BenchmarkProfile {
  std::string name;
  /// Effective switching capacitance [W/(GHz·V²)] per fully-used core.
  double c_eff_w_per_ghz_v2 = 0.45;
  /// Throughput multiplier of running 2 SMT threads on a core (≥ 1).
  double smt_yield = 1.2;
  /// Amdahl serial fraction α in [0, 1).
  double serial_fraction = 0.05;
  /// Sub-linear scaling exponent γ: speedup uses W^γ effective workers.
  double scaling_exponent = 0.62;
  /// Memory intensity m in [0, 1]: fraction of time insensitive to core f.
  double mem_intensity = 0.3;
  /// Largest scheduling latency the application tolerates [µs]; decides the
  /// deepest usable C-state for idle cores (paper §VII).
  double tolerable_latency_us = 10.0;

  [[nodiscard]] bool operator==(const BenchmarkProfile&) const = default;
};

/// The 13 PARSEC 3.0 benchmarks evaluated by the paper (Fig. 3).
[[nodiscard]] const std::vector<BenchmarkProfile>& parsec_benchmarks();

/// Lookup by name; throws PreconditionError when unknown.
[[nodiscard]] const BenchmarkProfile& find_benchmark(const std::string& name);

/// The benchmark with the highest full-load package power — the worst case
/// that drives the thermosyphon design (§V).
[[nodiscard]] const BenchmarkProfile& worst_case_benchmark();

}  // namespace tpcool::workload
