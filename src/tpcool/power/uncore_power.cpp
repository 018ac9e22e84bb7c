#include "tpcool/power/uncore_power.hpp"

#include "tpcool/util/error.hpp"
#include "tpcool/util/interp.hpp"

namespace tpcool::power {

double uncore_mcio_power_w(double uncore_freq_ghz) {
  TPCOOL_REQUIRE(
      uncore_freq_ghz >= kUncoreFreqMinGhz - 1e-9 &&
          uncore_freq_ghz <= kUncoreFreqMaxGhz + 1e-9,
      "uncore frequency outside 1.2-2.8 GHz");
  const double span = kUncoreFreqMaxGhz - kUncoreFreqMinGhz;
  const double frac = (uncore_freq_ghz - kUncoreFreqMinGhz) / span;
  return kUncoreStaticW + kUncoreProportionalSpanW * util::clamp(frac, 0.0, 1.0);
}

double llc_power_w(double activity) {
  TPCOOL_REQUIRE(activity >= 0.0 && activity <= 1.0,
                 "LLC activity outside [0, 1]");
  const double p = 1.0 + 1.0 * activity;
  return p > kLlcMaxW ? kLlcMaxW : p;
}

double uncore_frequency_for_core_ghz(double core_freq_ghz) {
  // Linear map of the supported core range [2.6, 3.2] onto [2.0, 2.8].
  const double frac = util::clamp((core_freq_ghz - 2.6) / 0.6, 0.0, 1.0);
  return 2.0 + 0.8 * frac;
}

}  // namespace tpcool::power
