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
#include <vector>

#include "tpcool/workload/trace.hpp"

namespace tpcool::datacenter {

/// Generator parameters.  The load model itself is fixed (see
/// workload_gen.cpp): a diurnal intensity base + amplitude · cos(2π ·
/// (hour − peak hour) / 24), per-slot noise partly shared across streams,
/// and fleet-wide flash-crowd bursts, clamped to [0, 1]; the intensity
/// weights a three-tier QoS mix (interactive 1× dominating the daytime
/// peak, mixed 2×, batch 3× filling the night).  See `diurnal_fleet_day` /
/// `diurnal_fleet_week` for the presets.
struct WorkloadGenConfig {
  std::uint64_t seed = 0;       ///< Same seed ⇒ bit-identical traces.
  std::size_t streams = 4;      ///< Arrival streams (one job each when active).
  double duration_s = 86400.0;  ///< Trace length (rounded up to whole slots).
  double slot_s = 900.0;        ///< Phase-boundary grid (15 min default).
  /// Mean phase length in slots: phases end with probability
  /// 1/mean_phase_slots per slot (geometric = quantized Poisson switching).
  double mean_phase_slots = 4.0;
  /// Mean flash-crowd burst arrivals per 24 h: burst starts arrive as a
  /// Bernoulli approximation of a Poisson process on the slot grid, last a
  /// geometric number of slots, and raise every stream's intensity while
  /// active — the correlated load spike all streams see together.
  double burst_rate_per_day = 2.0;

  [[nodiscard]] std::size_t total_slots() const;
};

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

 private:
  /// The fleet-wide intensity offset at a slot (diurnal + shared noise +
  /// burst boost, before per-stream noise and clamping).
  [[nodiscard]] double fleet_intensity(std::size_t slot) const;

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
