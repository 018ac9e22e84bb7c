#include "tpcool/power/core_power.hpp"

#include <cmath>

#include "tpcool/util/error.hpp"

namespace tpcool::power {

const std::vector<double>& core_frequency_levels() {
  static const std::vector<double> levels{2.6, 2.9, 3.2};
  return levels;
}

bool is_supported_frequency(double freq_ghz) {
  for (const double f : core_frequency_levels()) {
    if (std::abs(f - freq_ghz) < kFrequencyMatchGhz) return true;
  }
  return false;
}

double core_voltage_v(double freq_ghz) {
  TPCOOL_REQUIRE(is_supported_frequency(freq_ghz),
                 "unsupported DVFS frequency");
  if (std::abs(freq_ghz - 2.6) < kFrequencyMatchGhz) return 0.90;
  if (std::abs(freq_ghz - 2.9) < kFrequencyMatchGhz) return 1.00;
  return 1.10;  // 3.2 GHz
}

double dynamic_core_power_w(double c_eff_w_per_ghz_v2, double utilization,
                            double freq_ghz) {
  TPCOOL_REQUIRE(c_eff_w_per_ghz_v2 >= 0.0, "negative switching capacitance");
  TPCOOL_REQUIRE(utilization > 0.0 && utilization <= 2.0,
                 "utilization outside (0, 2]");
  const double v = core_voltage_v(freq_ghz);
  return c_eff_w_per_ghz_v2 * utilization * freq_ghz * v * v;
}

double active_core_power_w(double c_eff_w_per_ghz_v2, double utilization,
                           double freq_ghz) {
  return cstate_power_per_core_w(CState::kPoll, freq_ghz) +
         dynamic_core_power_w(c_eff_w_per_ghz_v2, utilization, freq_ghz);
}

}  // namespace tpcool::power
