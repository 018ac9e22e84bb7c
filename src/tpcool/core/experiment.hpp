#pragma once
/// \file experiment.hpp
/// \brief Shared experiment runners regenerating the paper's tables and
///        figures.  Benches print the results; the acceptance test suite
///        asserts the qualitative orderings (DESIGN.md §4).

#include <string>
#include <vector>

#include "tpcool/core/pipelines.hpp"
#include "tpcool/power/cstates.hpp"

namespace tpcool::core {

/// Global experiment options.
struct ExperimentOptions {
  /// Thermal-grid cell pitch. The default is the figure-fidelity pitch of
  /// `thermal::PackageStackConfig` (0.75 mm), which is what the bench
  /// binaries run without `--fast`; each bench's `--fast` flag and the
  /// acceptance tests override it with a coarser pitch (1.0–2.0 mm,
  /// orderings are grid-stable) to keep CI fast.
  double cell_size_m = 0.75e-3;
  /// Restrict multi-benchmark experiments to the first N PARSEC profiles
  /// (0 = all 13). Orderings are stable under the restriction.
  int max_benchmarks = 0;
};

/// Benchmarks selected by the options.
[[nodiscard]] std::vector<workload::BenchmarkProfile> selected_benchmarks(
    const ExperimentOptions& options);

// ---------------------------------------------------------------- Fig. 2 --

/// Motivation: die vs package profile under a non-optimized design and
/// mapping (paper Fig. 2: die 66.1/55.9/6.6 vs package 46.4/42.9/0.5).
struct Fig2Result {
  thermal::ThermalMetrics die;
  thermal::ThermalMetrics package;
  util::Grid2D<double> die_field_c;
  util::Grid2D<double> package_field_c;
};

[[nodiscard]] Fig2Result run_fig2_motivation(const ExperimentOptions& options);

// ---------------------------------------------------------------- Fig. 3 --

/// One Fig. 3 row: execution time of one benchmark normalized to the
/// (8,16,fmax) baseline, across the plotted configurations.
struct Fig3Row {
  std::string benchmark;
  /// Normalized execution time per configuration, index-aligned with
  /// workload::fig3_configurations().
  std::vector<double> normalized_time;
  /// Whether the (2,4,fmax) configuration meets the 2x QoS limit — the
  /// column the paper annotates.
  bool meets_2x_at_2_4 = false;
};

/// Regenerate Fig. 3 for the benchmarks selected by `options`
/// (`max_benchmarks`; the grid pitch is irrelevant — no thermal solves).
/// Rows fan out over the thread pool; results are bit-identical for any
/// thread count.
[[nodiscard]] std::vector<Fig3Row> run_fig3(const ExperimentOptions& options);

// --------------------------------------------------------------- Table I --

/// One Table I row: resume latency and all-8-core idle power of one C-state
/// across the DVFS levels.
struct Table1Row {
  power::CState state = power::CState::kPoll;
  double latency_us = 0.0;
  /// Idle power of all 8 cores per frequency, index-aligned with
  /// table1_frequencies().
  std::vector<double> power_all8_w;
};

/// The three DVFS levels tabulated in Table I [GHz].
[[nodiscard]] const std::vector<double>& table1_frequencies();

/// Regenerate Table I over every modelled C-state (the paper's POLL/C1/C1E
/// rows plus the datasheet-consistent C3/C6 extensions), shallowest first.
/// Rows fan out over the thread pool; results are bit-identical for any
/// thread count.
[[nodiscard]] std::vector<Table1Row> run_table1();

// ---------------------------------------------------------------- Fig. 5 --

/// Orientation study row (Design 1 = east-west, Design 2 = north-south).
struct Fig5Row {
  thermosyphon::Orientation orientation;
  thermal::ThermalMetrics die;
  thermal::ThermalMetrics package;
};

[[nodiscard]] std::vector<Fig5Row> run_fig5_orientation(
    const ExperimentOptions& options);

// ---------------------------------------------------------------- Fig. 6 --

/// Mapping-scenario study: 3 placements × idle C-state ∈ {POLL, C1}.
struct Fig6Row {
  int scenario = 0;                 ///< 1, 2, 3 per Fig. 6 a–c.
  power::CState idle_state = power::CState::kPoll;
  std::vector<int> cores;
  thermal::ThermalMetrics die;
};

[[nodiscard]] std::vector<Fig6Row> run_fig6_scenarios(
    const ExperimentOptions& options);

/// Core sets of the three Fig. 6 scenarios on the default floorplan.
[[nodiscard]] std::vector<int> fig6_scenario_cores(int scenario);

// --------------------------------------------------------------- Table II --

/// One Table II row: per-approach, per-QoS averages over the benchmarks.
struct Table2Row {
  Approach approach = Approach::kProposed;
  double qos_factor = 1.0;
  double die_max_c = 0.0;
  double die_grad_c_per_mm = 0.0;
  double package_max_c = 0.0;
  double package_grad_c_per_mm = 0.0;
  double avg_power_w = 0.0;        ///< Average package power (not in the
                                   ///  paper's table; used by §VIII-B).
  double avg_water_dt_k = 0.0;     ///< Average condenser water ΔT.
};

[[nodiscard]] std::vector<Table2Row> run_table2(
    const ExperimentOptions& options);

// ---------------------------------------------------------------- Fig. 7 --

/// Sample die thermal maps of x264 at 2x QoS: proposed vs state of the art.
struct Fig7Result {
  util::Grid2D<double> proposed_map_c;
  util::Grid2D<double> soa_map_c;
  double proposed_max_c = 0.0;
  double soa_max_c = 0.0;
  floorplan::GridSpec grid;
  floorplan::Rect die_region;
};

[[nodiscard]] Fig7Result run_fig7_maps(const ExperimentOptions& options);

// --------------------------------------------------------------- §VIII-B --

/// Cooling-power comparison at iso-hot-spot (paper §VIII-B).
struct CoolingPowerResult {
  double proposed_die_max_c = 0.0;   ///< Hot spot achieved by the proposal.
  double proposed_water_c = 0.0;     ///< 30 °C by design.
  double soa_water_c = 0.0;          ///< Water temp the SoA needs to match.
  double proposed_loop_dt_k = 0.0;   ///< Water in→out ΔT, proposed.
  double soa_loop_dt_k = 0.0;        ///< Water in→out ΔT, state of the art.
  double proposed_lift_power_w = 0.0;   ///< Paper Eq. (1) accounting.
  double soa_lift_power_w = 0.0;
  double proposed_electrical_w = 0.0;   ///< COP-model chiller electricity.
  double soa_electrical_w = 0.0;
  double lift_reduction_pct = 0.0;
  double electrical_reduction_pct = 0.0;
};

[[nodiscard]] CoolingPowerResult run_cooling_power(
    const ExperimentOptions& options);

}  // namespace tpcool::core
