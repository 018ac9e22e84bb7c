#pragma once
/// \file workload_gen.hpp
/// \brief Seeded synthetic workload generation: parameterized diurnal /
///        bursty / correlated multi-stream arrival traces, so a
///        millions-of-users fleet day (or week) is a one-liner instead of a
///        hand-written phase list.
///
/// Determinism contract: the generator is a pure function of its
/// `WorkloadGenConfig` — the same seed and parameters produce a
/// bit-identical set of `workload::WorkloadTrace`s on every run and at
/// every thread count (generation never touches the thread pool; all
/// randomness comes from an explicit splitmix64 stream, never from
/// `std::random_device`, implementation-defined `<random>` distributions,
/// or iteration order).  `streams_digest` certifies it, the same way
/// `fleet_digest` certifies fleet runs.
///
/// Phase boundaries land on a fixed slot grid (`slot_s`): every phase
/// duration is an integer number of slots, so boundaries of different
/// streams that are nominally equal are *exactly* equal doubles and the
/// fleet interval timeline stays bounded by the slot count instead of
/// exploding into per-stream sliver intervals.

#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

#include "tpcool/workload/configuration.hpp"
#include "tpcool/workload/trace.hpp"

namespace tpcool::datacenter {

/// Time-of-day load shape: intensity(t) = base + amplitude ·
/// cos(2π · (hour(t) − peak_hour) / 24), clamped to [0, 1] after noise and
/// bursts are added.  Intensity selects the QoS/benchmark mix (high =
/// interactive, low = batch).
struct DiurnalShape {
  double base = 0.45;       ///< Mean utilization over the day.
  double amplitude = 0.35;  ///< Day/night swing around the base.
  double peak_hour = 14.0;  ///< Local hour of peak load in [0, 24).
};

/// One tier of the heterogeneous QoS mix: a QoS factor, the benchmarks
/// that run under it, and how strongly the tier is represented at low vs
/// high fleet intensity (linearly interpolated).  Defaults model an
/// interactive tier that dominates the daytime peak and a batch tier that
/// fills the night.
struct QoSTier {
  workload::QoSRequirement qos{2.0};
  std::vector<std::string> benchmarks;  ///< Uniform pick within the tier.
  double weight_low = 1.0;   ///< Relative selection weight at intensity 0.
  double weight_high = 1.0;  ///< Relative selection weight at intensity 1.
};

/// Fleet-wide flash-crowd bursts: burst starts arrive as a Bernoulli
/// approximation of a Poisson process on the slot grid, last a geometric
/// number of slots, and add `intensity_boost` to every stream's intensity
/// while active — the correlated load spike all streams see together.
struct BurstModel {
  double rate_per_day = 2.0;        ///< Mean burst arrivals per 24 h.
  double mean_duration_slots = 4.0; ///< Geometric mean burst length.
  double intensity_boost = 0.45;    ///< Added to intensity while bursting.
};

/// Generator parameters.  Defaults produce a plausible interactive/batch
/// datacenter day; see `diurnal_fleet_day` / `diurnal_fleet_week` for the
/// tuned presets.
struct WorkloadGenConfig {
  std::uint64_t seed = 0;       ///< Same seed ⇒ bit-identical traces.
  std::size_t streams = 4;      ///< Arrival streams (one job each when active).
  double duration_s = 86400.0;  ///< Trace length (rounded up to whole slots).
  double slot_s = 900.0;        ///< Phase-boundary grid (15 min default).
  /// Mean phase length in slots: phases end with probability
  /// 1/mean_phase_slots per slot (geometric = quantized Poisson switching).
  double mean_phase_slots = 4.0;
  DiurnalShape diurnal;
  /// Correlation of the per-slot intensity noise across streams in [0, 1]:
  /// 1 = all streams share one noise sequence, 0 = independent.
  double correlation = 0.6;
  double noise = 0.15;          ///< Peak-to-peak amplitude of the noise.
  BurstModel bursts;
  /// The QoS mix; empty selects the default three-tier interactive /
  /// mixed / batch split over the 13 PARSEC profiles.
  std::vector<QoSTier> tiers;

  [[nodiscard]] std::size_t total_slots() const;
};

/// The default three-tier QoS mix (interactive 1×, mixed 2×, batch 3×)
/// used when `WorkloadGenConfig::tiers` is empty.
[[nodiscard]] std::vector<QoSTier> default_qos_tiers();

/// Seeded synthetic workload generator.  Construction validates the
/// config and precomputes the fleet-shared sequences (burst timeline,
/// shared noise); `stream(i)` / `generate()` are const and reproducible.
class WorkloadGenerator {
 public:
  explicit WorkloadGenerator(WorkloadGenConfig config);

  [[nodiscard]] const WorkloadGenConfig& config() const noexcept {
    return config_;
  }

  /// Generate stream `index` (deterministic in (seed, index) alone —
  /// streams can be generated in any order or in parallel by the caller).
  [[nodiscard]] workload::WorkloadTrace stream(std::size_t index) const;

  /// All `config().streams` traces, in stream order.
  [[nodiscard]] std::vector<workload::WorkloadTrace> generate() const;

  /// The fleet-wide intensity offset at a slot (diurnal + shared noise +
  /// burst boost, before per-stream noise and clamping) — exposed for
  /// tests and diagnostics.
  [[nodiscard]] double fleet_intensity(std::size_t slot) const;

  /// True when the fleet-wide burst timeline is active at a slot.
  [[nodiscard]] bool burst_active(std::size_t slot) const;

 private:
  WorkloadGenConfig config_;
  std::vector<double> shared_noise_;  ///< Per-slot, in [-0.5, 0.5].
  std::vector<bool> burst_slots_;     ///< Fleet-wide burst timeline.
};

/// Order-sensitive FNV-1a digest over a trace's phases (benchmark names,
/// exact QoS-factor and duration bit patterns).  Equal digests certify
/// bit-identical traces.
[[nodiscard]] std::uint64_t trace_digest(const workload::WorkloadTrace& trace);

/// Digest over a whole stream set, in stream order.
[[nodiscard]] std::uint64_t streams_digest(
    const std::vector<workload::WorkloadTrace>& streams);

/// Preset: one diurnal datacenter day — interactive peak around 14:00,
/// batch overnight, a couple of flash-crowd bursts.  `streams` jobs on a
/// 15-minute slot grid.
[[nodiscard]] WorkloadGenConfig diurnal_fleet_day(std::uint64_t seed,
                                                  std::size_t streams);

/// Preset: seven diurnal days on a 30-minute grid — the unbounded-length
/// streaming demonstration (perf/'s `fleet_stream` runs it for four weeks).
[[nodiscard]] WorkloadGenConfig diurnal_fleet_week(std::uint64_t seed,
                                                   std::size_t streams);

}  // namespace tpcool::datacenter
