#include "tpcool/datacenter/workload_gen.hpp"

#include <algorithm>
#include <cmath>
#include <limits>
#include <numbers>
#include <string>
#include <utility>

#include "tpcool/util/error.hpp"
#include "tpcool/util/fnv.hpp"
#include "tpcool/workload/configuration.hpp"

namespace tpcool::datacenter {

namespace {

/// splitmix64 (Steele/Lea/Flood): the whole generator's randomness.  Fully
/// specified integer arithmetic — unlike `<random>` distributions, whose
/// output is implementation-defined — so the same seed produces the same
/// traces on every standard library.
struct SplitMix64 {
  std::uint64_t state = 0;

  std::uint64_t next() {
    std::uint64_t z = (state += 0x9E3779B97F4A7C15ULL);
    z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ULL;
    z = (z ^ (z >> 27)) * 0x94D049BB133111EBULL;
    return z ^ (z >> 31);
  }

  /// Uniform double in [0, 1) with 53 random bits.
  double uniform() { return static_cast<double>(next() >> 11) * 0x1.0p-53; }
};

/// Independent sub-streams of one seed: mix a domain tag in through one
/// splitmix step so stream i's randomness never overlaps the shared
/// sequences' or stream j's.
std::uint64_t substream_seed(std::uint64_t seed, std::uint64_t tag) {
  SplitMix64 rng{seed ^ (0x632BE59BD9B4E019ULL * (tag + 1))};
  return rng.next();
}

constexpr std::uint64_t kSharedNoiseTag = 0x01;
constexpr std::uint64_t kBurstTag = 0x02;
constexpr std::uint64_t kStreamTagBase = 0x100;

// Time-of-day load shape: intensity(t) = base + amplitude ·
// cos(2π · (hour(t) − peak hour) / 24), before noise and bursts.
constexpr double kDiurnalBase = 0.45;       ///< Mean utilization over the day.
constexpr double kDiurnalAmplitude = 0.35;  ///< Day/night swing around it.
constexpr double kPeakHour = 14.0;          ///< Local hour of peak load.
/// Correlation of the per-slot intensity noise across streams in [0, 1]:
/// 1 = all streams share one noise sequence, 0 = independent.
constexpr double kCorrelation = 0.6;
constexpr double kNoise = 0.15;  ///< Peak-to-peak amplitude of the noise.
constexpr double kBurstMeanSlots = 4.0;  ///< Geometric mean burst length.
constexpr double kBurstBoost = 0.45;     ///< Added to intensity in a burst.

/// One tier of the QoS mix: a QoS factor, the benchmarks that run under it
/// (uniform pick), and how strongly the tier is represented at intensity 0
/// vs 1 (linearly interpolated).
struct QoSTier {
  workload::QoSRequirement qos;
  std::vector<std::string> benchmarks;
  double weight_low;
  double weight_high;
};

/// The three-tier mix (interactive 1×, mixed 2×, batch 3×) over the 13
/// PARSEC profiles.  The interactive tier dominates the daytime peak, batch
/// fills the night, and the mixed tier is always present.  Benchmarks
/// split by character: interactive = latency-critical high-power profiles,
/// batch = memory-bound throughput profiles (see workload/benchmark.cpp).
const std::vector<QoSTier>& qos_tiers() {
  static const std::vector<QoSTier> tiers{
      {workload::QoSRequirement{1.0},
       {"x264", "facesim", "ferret", "raytrace"},
       0.10,
       0.65},
      {workload::QoSRequirement{2.0},
       {"vips", "bodytrack", "fluidanimate", "freqmine", "dedup"},
       0.30,
       0.25},
      {workload::QoSRequirement{3.0},
       {"streamcluster", "canneal", "blackscholes", "swaptions"},
       0.60,
       0.10},
  };
  return tiers;
}

/// Geometric phase/burst length with mean `mean_slots` (p = 1/mean), in
/// whole slots, capped at `cap`.  Sampled by Bernoulli trials — no
/// `std::log`, so the result is identical on every libm.
std::size_t sample_geometric_slots(SplitMix64& rng, double mean_slots,
                                   std::size_t cap) {
  const double p = 1.0 / mean_slots;
  std::size_t length = 1;
  while (length < cap && rng.uniform() >= p) ++length;
  return length;
}

double clamp01(double x) { return std::clamp(x, 0.0, 1.0); }

}  // namespace

std::size_t WorkloadGenConfig::total_slots() const {
  // ceil(duration / slot) with an epsilon so exact multiples (86400 / 900)
  // do not round up to an extra slot from FP division error.
  const double slots = std::ceil(duration_s / slot_s - 1.0e-9);
  // Casting a value std::size_t cannot hold (inf, NaN, >= 2^64) is
  // undefined behavior, so check the fit first.
  TPCOOL_REQUIRE(
      slots >= 0.0 &&
          slots < static_cast<double>(std::numeric_limits<std::size_t>::max()),
      "slot count (duration / slot length) must fit std::size_t");
  return static_cast<std::size_t>(slots);
}

WorkloadGenerator::WorkloadGenerator(WorkloadGenConfig config)
    : config_(config) {
  TPCOOL_REQUIRE(config_.streams >= 1, "generator needs at least one stream");
  TPCOOL_REQUIRE(config_.slot_s > 0.0, "slot length must be positive");
  TPCOOL_REQUIRE(config_.duration_s > 0.0, "duration must be positive");
  TPCOOL_REQUIRE(config_.total_slots() >= 1, "duration shorter than one slot");
  TPCOOL_REQUIRE(config_.mean_phase_slots >= 1.0,
                 "mean phase length below one slot");
  TPCOOL_REQUIRE(config_.burst_rate_per_day >= 0.0,
                 "burst rate must be >= 0");

  const std::size_t slots = config_.total_slots();

  // Fleet-shared per-slot noise: every stream mixes this sequence in with
  // weight `correlation`, which is what correlates their load.
  SplitMix64 noise_rng{substream_seed(config_.seed, kSharedNoiseTag)};
  shared_noise_.resize(slots);
  for (double& n : shared_noise_) n = noise_rng.uniform() - 0.5;

  // Fleet-wide burst timeline: Bernoulli arrivals per slot (the discrete
  // approximation of a Poisson process with the configured daily rate),
  // geometric durations, overlapping bursts merge.
  SplitMix64 burst_rng{substream_seed(config_.seed, kBurstTag)};
  burst_slots_.assign(slots, false);
  const double p_start =
      std::min(1.0, config_.burst_rate_per_day * config_.slot_s / 86400.0);
  for (std::size_t slot = 0; slot < slots; ++slot) {
    if (burst_rng.uniform() >= p_start) continue;
    const std::size_t length = sample_geometric_slots(
        burst_rng, kBurstMeanSlots, slots - slot);
    for (std::size_t b = slot; b < slot + length; ++b) burst_slots_[b] = true;
  }
}

double WorkloadGenerator::fleet_intensity(std::size_t slot) const {
  TPCOOL_REQUIRE(slot < config_.total_slots(), "slot out of range");
  const double hour =
      std::fmod(static_cast<double>(slot) * config_.slot_s / 3600.0, 24.0);
  const double phase =
      2.0 * std::numbers::pi * (hour - kPeakHour) / 24.0;
  double intensity = kDiurnalBase + kDiurnalAmplitude * std::cos(phase);
  intensity += kNoise * kCorrelation * shared_noise_[slot];
  if (burst_slots_[slot]) intensity += kBurstBoost;
  return intensity;
}

workload::WorkloadTrace WorkloadGenerator::stream(std::size_t index) const {
  TPCOOL_REQUIRE(index < config_.streams, "stream index out of range");
  SplitMix64 rng{substream_seed(config_.seed, kStreamTagBase + index)};

  const std::size_t slots = config_.total_slots();
  std::vector<workload::TracePhase> phases;
  // Divide in double: mean_phase_slots >= 1 may be too large (or inf) for
  // std::size_t, and the quotient never exceeds `slots`.
  phases.reserve(static_cast<std::size_t>(static_cast<double>(slots) /
                                          config_.mean_phase_slots) +
                 2);

  std::size_t slot = 0;
  while (slot < slots) {
    const std::size_t length =
        sample_geometric_slots(rng, config_.mean_phase_slots, slots - slot);

    // Intensity at the phase start decides this phase's tier/benchmark:
    // fleet-shared part (diurnal + correlated noise + bursts) plus the
    // stream's own idiosyncratic noise.
    const double own = rng.uniform() - 0.5;
    const double intensity = clamp01(
        fleet_intensity(slot) + kNoise * (1.0 - kCorrelation) * own);

    // Tier weights interpolate between the low- and high-intensity mixes.
    const std::vector<QoSTier>& tiers = qos_tiers();
    double total_weight = 0.0;
    for (const QoSTier& tier : tiers) {
      total_weight +=
          tier.weight_low + intensity * (tier.weight_high - tier.weight_low);
    }
    double pick = rng.uniform() * total_weight;
    const QoSTier* chosen = &tiers.back();
    for (const QoSTier& tier : tiers) {
      const double w =
          tier.weight_low + intensity * (tier.weight_high - tier.weight_low);
      if (pick < w) {
        chosen = &tier;
        break;
      }
      pick -= w;
    }

    const std::size_t bench_index = std::min(
        chosen->benchmarks.size() - 1,
        static_cast<std::size_t>(rng.uniform() *
                                 static_cast<double>(
                                     chosen->benchmarks.size())));

    // Durations are integer slot multiples, so cumulative phase sums are
    // exact doubles shared across streams (no ULP sliver intervals).
    phases.push_back({chosen->benchmarks[bench_index], chosen->qos,
                      static_cast<double>(length) * config_.slot_s});
    slot += length;
  }
  return workload::WorkloadTrace(std::move(phases));
}

std::vector<workload::WorkloadTrace> WorkloadGenerator::generate() const {
  std::vector<workload::WorkloadTrace> streams;
  streams.reserve(config_.streams);
  for (std::size_t s = 0; s < config_.streams; ++s) {
    streams.push_back(stream(s));
  }
  return streams;
}

std::uint64_t trace_digest(const workload::WorkloadTrace& trace) {
  std::uint64_t digest = util::kFnvOffsetBasis;
  util::fnv_u64(digest, trace.phase_count());
  for (const workload::TracePhase& phase : trace.phases()) {
    util::fnv_string(digest, phase.benchmark);
    util::fnv_f64(digest, phase.qos.factor);
    util::fnv_f64(digest, phase.duration_s);
  }
  return digest;
}

std::uint64_t streams_digest(
    const std::vector<workload::WorkloadTrace>& streams) {
  std::uint64_t digest = util::kFnvOffsetBasis;
  util::fnv_u64(digest, streams.size());
  for (const workload::WorkloadTrace& stream : streams) {
    util::fnv_u64(digest, trace_digest(stream));
  }
  return digest;
}

WorkloadGenConfig diurnal_fleet_day(std::uint64_t seed, std::size_t streams) {
  WorkloadGenConfig config;
  config.seed = seed;
  config.streams = streams;
  config.duration_s = 86400.0;
  config.slot_s = 900.0;  // 96 slots
  config.mean_phase_slots = 4.0;
  return config;
}

WorkloadGenConfig diurnal_fleet_week(std::uint64_t seed,
                                     std::size_t streams) {
  WorkloadGenConfig config;
  config.seed = seed;
  config.streams = streams;
  config.duration_s = 7.0 * 86400.0;
  config.slot_s = 1800.0;  // 336 slots
  config.mean_phase_slots = 4.0;
  config.burst_rate_per_day = 1.5;
  return config;
}

}  // namespace tpcool::datacenter
