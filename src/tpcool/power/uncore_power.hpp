#pragma once
/// \file uncore_power.hpp
/// \brief Uncore power model (paper §IV-C2): LLC plus memory controller / IO
///        subsystem with a static and a frequency-proportional component.

namespace tpcool::power {

/// Uncore frequency bounds [GHz] (paper: 1.2–2.8 GHz).
inline constexpr double kUncoreFreqMinGhz = 1.2;
inline constexpr double kUncoreFreqMaxGhz = 2.8;

/// Static memory-controller/IO overhead, present at all operating points.
inline constexpr double kUncoreStaticW = 9.0;

/// Variation from minimum to maximum uncore frequency (paper: 8 W).
inline constexpr double kUncoreProportionalSpanW = 8.0;

/// Worst-case LLC power for the full 25 MB capacity (paper: 2 W).
inline constexpr double kLlcMaxW = 2.0;

/// Memory-controller + IO power [W] at an uncore frequency [GHz].
[[nodiscard]] double uncore_mcio_power_w(double uncore_freq_ghz);

/// LLC power [W] given an activity factor in [0, 1]; 1 W static + up to 1 W
/// dynamic, capped at the paper's 2 W worst case.
[[nodiscard]] double llc_power_w(double activity);

/// Uncore frequency paired with a core DVFS level: the governor scales the
/// uncore clock linearly with the core clock (2.6 GHz -> 2.0, 3.2 -> 2.8).
[[nodiscard]] double uncore_frequency_for_core_ghz(double core_freq_ghz);

}  // namespace tpcool::power
