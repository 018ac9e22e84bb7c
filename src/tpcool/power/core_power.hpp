#pragma once
/// \file core_power.hpp
/// \brief Active-core power model: per-benchmark switching capacitance with
///        f·V² dynamic scaling on top of the POLL floor.
///
/// The paper measures per-benchmark dynamic power with RAPL at three
/// frequency levels (§IV-C1). We reproduce that table analytically:
///   P_core(bench, f, u) = P_POLL,core(f) + C_eff · u · f · V(f)²
/// where u is the per-core utilization (1-thread vs 2-thread SMT) and V(f)
/// the DVFS voltage level.

#include "tpcool/power/cstates.hpp"

namespace tpcool::power {

/// Supported DVFS core-frequency levels [GHz] (paper §IV-C1).
[[nodiscard]] const std::vector<double>& core_frequency_levels();

/// How far [GHz] a frequency may lie from a DVFS level and still run at it.
inline constexpr double kFrequencyMatchGhz = 1e-9;

/// Whether `freq_ghz` is one of the supported DVFS levels (within
/// `kFrequencyMatchGhz`).
[[nodiscard]] bool is_supported_frequency(double freq_ghz);

/// DVFS voltage [V] at a supported frequency level.
[[nodiscard]] double core_voltage_v(double freq_ghz);

/// Active-core power [W] for a benchmark with effective switching
/// capacitance `c_eff_w_per_ghz_v2` and utilization `utilization` in (0, 2].
[[nodiscard]] double active_core_power_w(double c_eff_w_per_ghz_v2,
                                         double utilization, double freq_ghz);

/// Dynamic-only component of the above [W].
[[nodiscard]] double dynamic_core_power_w(double c_eff_w_per_ghz_v2,
                                          double utilization, double freq_ghz);

}  // namespace tpcool::power
