#include "tpcool/datacenter/streaming.hpp"

#include <algorithm>
#include <bit>
#include <charconv>
#include <cmath>
#include <cstdlib>
#include <functional>
#include <istream>
#include <limits>
#include <ostream>
#include <sstream>
#include <string_view>
#include <system_error>
#include <utility>

#include "tpcool/cooling/pue.hpp"
#include "tpcool/cooling/rack.hpp"
#include "tpcool/core/parallel.hpp"
#include "tpcool/datacenter/control.hpp"
#include "tpcool/core/solve_cache.hpp"
#include "tpcool/util/error.hpp"
#include "tpcool/util/telemetry.hpp"
#include "tpcool/workload/benchmark.hpp"

namespace tpcool::datacenter {

namespace {

/// Phase-1 outcome of one request class in one interval: its scan against
/// its rack's supply candidates.  Its jobs read it by index.
struct ScanOutcome {
  std::size_t id = 0;            ///< The class, in the engine's table.
  double max_supply_temp_c = 0.0;
  double demand_power_w = 0.0;  ///< Package power at the scan's endpoint.
  bool infeasible = false;      ///< No candidate kept TCASE within limit.
  std::size_t scanned = 0;      ///< Candidates answered, the last included.
};

constexpr std::size_t kNone = static_cast<std::size_t>(-1);

/// Fold `value` into the hash `h` (boost's hash_combine with a 64-bit
/// constant).
void hash_combine(std::size_t& h, std::uint64_t value) {
  h ^= std::hash<std::uint64_t>{}(value) + 0x9e3779b97f4a7c15ULL + (h << 6) +
       (h >> 2);
}

/// Bitwise equality: the candidates become cache-key bits and outputs, so
/// -0.0 and 0.0 are different candidates.
bool same_bits(const std::vector<double>& a, const std::vector<double>& b) {
  return std::equal(a.begin(), a.end(), b.begin(), b.end(),
                    [](double x, double y) {
                      return std::bit_cast<std::uint64_t>(x) ==
                             std::bit_cast<std::uint64_t>(y);
                    });
}

}  // namespace

// ------------------------------------------------------------- the engine --

StreamingFleetEngine::StreamingFleetEngine(
    FleetConfig config, std::vector<workload::WorkloadTrace> streams)
    : config_(std::move(config)), streams_(std::move(streams)) {
  validate_fleet_config(config_);
  TPCOOL_REQUIRE(!streams_.empty(), "fleet run needs at least one stream");

  boundaries_ = fleet_interval_boundaries(streams_);
  policy_ = make_placement_policy(config_.placement);

  // Per-rack dispatch state (headroom carries across intervals) and the
  // fleet's capacity.
  loads_.resize(config_.racks.size());
  for (std::size_t r = 0; r < config_.racks.size(); ++r) {
    loads_[r] = {r, config_.racks[r].servers, 0, 0.0, kIdleHeadroomC};
    capacity_ += config_.racks[r].servers;
  }

  // Per-rack design water flow (the §VI-C operating point of the rack's
  // approach), fixed over the run, the rack's cache scope, its approach's
  // scheduler, and its scan class: the first rack whose phase-1 scan reads
  // the same inputs.
  design_flow_kg_h_.resize(config_.racks.size());
  rack_scope_.resize(config_.racks.size());
  rack_class_.resize(config_.racks.size());
  for (std::size_t r = 0; r < config_.racks.size(); ++r) {
    const RackSpec& spec = config_.racks[r];
    design_flow_kg_h_[r] =
        core::server_config_for(spec.approach, spec.cell_size_m)
            .operating_point.water_flow_kg_h;
    rack_scope_[r] = core::solve_scope(spec.approach, spec.cell_size_m);
    schedulers_.try_emplace(spec.approach, spec.approach);
    rack_class_[r] = r;
    for (std::size_t q = 0; q < r; ++q) {
      const RackSpec& other = config_.racks[q];
      if (rack_scope_[q] == rack_scope_[r] &&
          same_bits(other.supply_candidates_c, spec.supply_candidates_c) &&
          other.tcase_limit_c == spec.tcase_limit_c) {
        rack_class_[r] = rack_class_[q];
        break;
      }
    }
  }

  // Lookahead policies precompute from the full timeline (the addresses
  // handed out are the engine's own members, stable for the run).
  policy_->begin_run({&streams_, &boundaries_});

  summary_.duration_s = boundaries_.back();
}

std::size_t StreamingFleetEngine::ClassKeyHash::operator()(
    const ClassKey& key) const noexcept {
  std::size_t h = key.rack;
  hash_combine(h, std::bit_cast<std::uintptr_t>(key.bench));
  hash_combine(h, key.qos_bits);
  return h;
}

std::size_t StreamingFleetEngine::request_class(std::size_t rack,
                                                const JobRequest& job) {
  const auto [it, fresh] = class_index_.try_emplace(
      ClassKey{rack, job.bench, std::bit_cast<std::uint64_t>(job.qos.factor)},
      classes_.size());
  if (!fresh) return it->second;
  // A decision depends only on (approach, benchmark, QoS); the key bytes on
  // the decision, the rack's scope and its design flow.  All are fixed for
  // the run.
  const RackSpec& spec = config_.racks[rack];
  RequestClass& cls = classes_.emplace_back();
  cls.rack = rack;
  cls.bench = job.bench;
  cls.decision = schedulers_.at(spec.approach).schedule(*job.bench, job.qos);
  cls.request_key = core::solve_request_key(
      *job.bench, cls.decision.point.config, cls.decision.cores,
      cls.decision.idle_state);
  cls.candidate_keys.reserve(spec.supply_candidates_c.size());
  for (const double t_w : spec.supply_candidates_c) {
    cls.candidate_keys.push_back(core::solve_key(
        rack_scope_[rack],
        {.water_flow_kg_h = design_flow_kg_h_[rack], .water_inlet_c = t_w},
        cls.request_key));
  }
  return it->second;
}

void StreamingFleetEngine::add_observer(FleetObserver& observer) {
  TPCOOL_REQUIRE(!begun_, "observers must be registered before the run");
  observers_.push_back(&observer);
}

void StreamingFleetEngine::set_controller(FleetController& controller) {
  TPCOOL_REQUIRE(controller_ == nullptr, "engine already has a controller");
  controller_ = &controller;
  add_observer(controller);  // also enforces the before-the-run rule
}

const FleetRunSummary& StreamingFleetEngine::summary() const {
  TPCOOL_REQUIRE(finished_ && !failed_,
                 "summary is only valid after the run finishes cleanly");
  return summary_;
}

bool StreamingFleetEngine::advance() {
  if (finished_) return false;
  if (!begun_) {
    begun_ = true;
    try {
      for (FleetObserver* observer : observers_) {
        observer->on_run_begin(config_, streams_.size(), boundaries_.back());
      }
    } catch (...) {
      finished_ = true;  // observer contract: a throw spends the engine
      failed_ = true;
      throw;
    }
  }

  if (next_interval_ + 1 >= boundaries_.size()) {
    // Timeline drained: finalize and dispatch the end-of-run summary.
    TPCOOL_ENSURE(summary_.total_it_energy_j > 0.0,
                  "fleet ran no work (all streams empty?)");
    summary_.avg_pue =
        summary_.total_facility_energy_j / summary_.total_it_energy_j;
    summary_.intervals = next_interval_;
    finished_ = true;
    for (FleetObserver* observer : observers_) {
      observer->on_run_end(summary_);
    }
    return false;
  }

  const std::size_t b = next_interval_;
  const double start_s = boundaries_[b];
  const double duration_s = boundaries_[b + 1] - boundaries_[b];

  // One span per streamed interval, covering the parallel scan/solve
  // fan-out and observer dispatch.
  util::TraceSpan span("fleet.interval");
  span.arg("interval", static_cast<double>(b));
  if (util::telemetry_enabled()) {
    static util::TelemetryCounter& intervals =
        util::Telemetry::instance().counter("fleet.intervals");
    intervals.add(1.0);
  }

  const core::SolveCache::Stats cache_before =
      core::SolveCache::global()->stats();

  // Arrivals: every still-active stream contributes its current phase,
  // whose profile the trace resolved when it was built.
  std::vector<JobRequest> jobs;
  jobs.reserve(streams_.size());
  for (std::size_t s = 0; s < streams_.size(); ++s) {
    const workload::WorkloadTrace& stream = streams_[s];
    if (start_s >= stream.total_duration_s()) continue;  // stream done
    const std::size_t phase = stream.phase_index_at(start_s);
    JobRequest job;
    job.stream = s;
    job.bench = &stream.profile(phase);
    job.qos = stream.phases()[phase].qos;
    job.est_power_w = job_power_estimate(*job.bench, job.qos);
    jobs.push_back(job);
  }
  TPCOOL_REQUIRE(jobs.size() <= capacity_,
                 "fleet over capacity: " + std::to_string(jobs.size()) +
                     " active streams vs " + std::to_string(capacity_) +
                     " servers");

  // Dispatch in stream order (the arrival order): deterministic, serial.
  for (RackLoad& load : loads_) {
    load.assigned = 0;
    load.est_power_w = 0.0;
  }
  policy_->begin_interval(b);
  std::vector<std::size_t> placed_rack(jobs.size());
  for (std::size_t j = 0; j < jobs.size(); ++j) {
    const std::size_t rack = policy_->select_rack(jobs[j], loads_);
    TPCOOL_REQUIRE(rack < loads_.size() && !loads_[rack].full(),
                   "placement policy chose an invalid rack");
    placed_rack[j] = rack;
    ++loads_[rack].assigned;
    loads_[rack].est_power_w += jobs[j].est_power_w;
  }

  // Group the jobs into request classes: (rack class, benchmark, QoS
  // factor) fixes the decision and every question a scan asks, so each
  // class present is scanned once and its jobs read the outcome.  Classes
  // are numbered by their first job here; that numbering, not the table's,
  // fixes the order the cache is asked in.
  std::vector<ScanOutcome> scans;  // one per class present
  std::vector<std::size_t> job_class(jobs.size());  // index into `scans`
  {
    std::vector<std::size_t> slot;  // table index -> index into `scans`
    for (std::size_t j = 0; j < jobs.size(); ++j) {
      const std::size_t id =
          request_class(rack_class_[placed_rack[j]], jobs[j]);
      if (slot.size() <= id) slot.resize(classes_.size(), kNone);
      if (slot[id] == kNone) {
        slot[id] = scans.size();
        scans.push_back({.id = id});
      }
      job_class[j] = slot[id];
    }
  }

  // A class's coupled solve at a supply temperature of its rack, asked with
  // its decision and request key: `solve_at` answers it, solving on a miss.
  core::SolveCache& cache = *core::SolveCache::global();
  const auto solve_at = [&](const RequestClass& cls, double water_inlet_c) {
    const RackSpec& spec = config_.racks[cls.rack];
    return core::cached_solve(
        cache, spec.approach, spec.cell_size_m, rack_scope_[cls.rack],
        {.water_flow_kg_h = design_flow_kg_h_[cls.rack],
         .water_inlet_c = water_inlet_c},
        cls.request_key, *cls.bench, cls.decision.point.config,
        cls.decision.cores, cls.decision.idle_state);
  };

  // Phase 1: scan the rack's supply candidates, coldest last, for the
  // highest feasible temperature.  `ask` answers candidate k, or returns
  // null to pause the scan there; true once the scan has ended.
  // Infeasibility does not throw: the server pins to the coldest candidate
  // and is flagged.
  const auto scan = [&](ScanOutcome& out, const auto& ask) {
    const RequestClass& cls = classes_[out.id];
    const RackSpec& spec = config_.racks[cls.rack];
    const std::vector<double>& candidates = spec.supply_candidates_c;
    while (out.scanned < candidates.size()) {
      const core::SolveCache::ResultPtr sim = ask(cls, out.scanned);
      if (sim == nullptr) return false;
      out.max_supply_temp_c = candidates[out.scanned];
      ++out.scanned;
      out.demand_power_w = sim->total_power_w;
      if (sim->tcase_c <= spec.tcase_limit_c) return true;
    }
    out.infeasible = true;  // runs pinned at the coldest candidate
    return true;
  };
  // The calling thread walks every scan while the cache answers it, under
  // the key bytes the class stored; only the classes paused at an
  // unanswered candidate fan out, resuming there.  The fan-out is joined
  // here — observers never run concurrently with it.
  std::vector<std::size_t> paused;
  for (std::size_t c = 0; c < scans.size(); ++c) {
    const bool ended = scan(scans[c], [&](const RequestClass& cls,
                                          std::size_t k) {
      return cache.find(cls.candidate_keys[k]);
    });
    if (!ended) paused.push_back(c);
  }
  const std::vector<ScanOutcome> resumed = util::parallel_map<ScanOutcome>(
      paused.size(), [&](std::size_t i) {
        ScanOutcome out = scans[paused[i]];
        scan(out, [&](const RequestClass& cls, std::size_t k) {
          return solve_at(cls,
                          config_.racks[cls.rack].supply_candidates_c[k]);
        });
        return out;
      });
  for (std::size_t i = 0; i < paused.size(); ++i) {
    scans[paused[i]] = resumed[i];
  }
  // Requests are what a per-job engine would ask: each job's scan, then
  // its solve at the setpoint.
  std::size_t requests = 0;
  std::size_t lookups = 0;
  for (std::size_t j = 0; j < jobs.size(); ++j) {
    requests += scans[job_class[j]].scanned + 1;
  }
  for (const ScanOutcome& out : scans) lookups += out.scanned;

  // The controller's actuation for this interval: the biases its state
  // held after the previous interval (interval 0 runs unbiased).  Queried
  // once, before the solve, and stamped into the interval below.
  std::vector<double> bias(config_.racks.size(), 0.0);
  if (controller_ != nullptr) {
    for (std::size_t r = 0; r < config_.racks.size(); ++r) {
      bias[r] = controller_->applied_bias_c(r);
    }
  }

  // Shared loop per rack: the §V setpoint rule (cooling::solve_rack_cooling),
  // then the controller bias, clamped to [coldest candidate, default max]
  // — a zero bias takes the exact unbiased path, so zero-gain control is
  // bit-identical to no control.
  std::vector<cooling::RackCoolingState> rack_cooling(config_.racks.size());
  std::vector<cooling::ServerDemand> demands;
  for (std::size_t r = 0; r < config_.racks.size(); ++r) {
    demands.clear();
    for (std::size_t j = 0; j < jobs.size(); ++j) {
      if (placed_rack[j] != r) continue;
      const ScanOutcome& out = scans[job_class[j]];
      demands.push_back(
          {out.demand_power_w, out.max_supply_temp_c, design_flow_kg_h_[r]});
    }
    if (demands.empty()) continue;
    rack_cooling[r] =
        cooling::solve_rack_cooling(demands, config_.racks[r].chiller);
    if (bias[r] != 0.0) {
      const double coldest = config_.racks[r].supply_candidates_c.back();
      const double setpoint =
          std::min(cooling::kDefaultMaxSetpointC,
                   std::max(coldest, rack_cooling[r].supply_temp_c + bias[r]));
      rack_cooling[r] = cooling::solve_rack_cooling_at(
          demands, config_.racks[r].chiller, setpoint);
    }
  }

  // Phase 2: every server at its rack's shared setpoint, asked once per
  // distinct (class, setpoint) pair, numbered by its first job.  A job's
  // pair is found through (class, rack): racks of one class whose
  // setpoints are equal bitwise share it.  The calling thread serves the
  // pairs the cache holds; only the rest fan out.  Results stay shared
  // with the cache; only three scalars are read.
  const std::size_t rack_count = config_.racks.size();
  const auto setpoint_bits = [&](std::size_t r) {
    return std::bit_cast<std::uint64_t>(rack_cooling[r].supply_temp_c);
  };
  std::vector<std::size_t> pair_job;  // each pair's first job
  std::vector<std::size_t> job_pair(jobs.size());
  {
    std::vector<std::size_t> pair_of(scans.size() * rack_count, kNone);
    for (std::size_t j = 0; j < jobs.size(); ++j) {
      const std::size_t r = placed_rack[j];
      std::size_t* const row = &pair_of[job_class[j] * rack_count];
      if (row[r] == kNone) {
        for (std::size_t q = 0; q < rack_count; ++q) {
          if (row[q] != kNone && setpoint_bits(q) == setpoint_bits(r)) {
            row[r] = row[q];
            break;
          }
        }
      }
      if (row[r] == kNone) {
        row[r] = pair_job.size();
        pair_job.push_back(j);
      }
      job_pair[j] = row[r];
    }
  }
  std::vector<core::SolveCache::ResultPtr> pair_results(pair_job.size());
  std::vector<std::size_t> unanswered;
  for (std::size_t p = 0; p < pair_job.size(); ++p) {
    const std::size_t j = pair_job[p];
    const RequestClass& cls = classes_[scans[job_class[j]].id];
    const std::uint64_t bits = setpoint_bits(placed_rack[j]);
    // A setpoint the scan could stop at is keyed already; any other (the
    // default maximum, a controller's bias) gets its key built here.
    const std::vector<double>& candidates =
        config_.racks[cls.rack].supply_candidates_c;
    std::size_t k = 0;
    while (k < candidates.size() &&
           std::bit_cast<std::uint64_t>(candidates[k]) != bits) {
      ++k;
    }
    std::string built;
    if (k == candidates.size()) {
      built = core::solve_key(
          rack_scope_[cls.rack],
          {.water_flow_kg_h = design_flow_kg_h_[cls.rack],
           .water_inlet_c = std::bit_cast<double>(bits)},
          cls.request_key);
    }
    pair_results[p] =
        cache.find(k < candidates.size() ? cls.candidate_keys[k] : built);
    if (pair_results[p] == nullptr) unanswered.push_back(p);
  }
  const std::vector<core::SolveCache::ResultPtr> solved =
      util::parallel_map<core::SolveCache::ResultPtr>(
          unanswered.size(), [&](std::size_t i) {
            const std::size_t j = pair_job[unanswered[i]];
            return solve_at(classes_[scans[job_class[j]].id],
                            rack_cooling[placed_rack[j]].supply_temp_c);
          });
  for (std::size_t i = 0; i < unanswered.size(); ++i) {
    pair_results[unanswered[i]] = solved[i];
  }
  lookups += pair_job.size();

  // Assemble the interval.  This is the only FleetInterval the engine ever
  // holds (kMaxHeldIntervals); it dies when the last observer returns.
  peak_held_intervals_ = std::max<std::size_t>(peak_held_intervals_, 1);
  FleetInterval interval;
  interval.interval = b;
  interval.start_s = start_s;
  interval.duration_s = duration_s;
  interval.racks.resize(config_.racks.size());
  for (std::size_t r = 0; r < config_.racks.size(); ++r) {
    interval.racks[r].cooling = rack_cooling[r];
  }
  interval.jobs.reserve(jobs.size());
  for (std::size_t j = 0; j < jobs.size(); ++j) {
    const std::size_t r = placed_rack[j];
    const ScanOutcome& scanned = scans[job_class[j]];
    const core::SimulationResult& at_setpoint = *pair_results[job_pair[j]];
    JobOutcome outcome;
    outcome.stream = jobs[j].stream;
    outcome.benchmark = jobs[j].bench->name;
    outcome.qos_factor = jobs[j].qos.factor;
    outcome.rack = r;
    outcome.decision = classes_[scanned.id].decision;
    outcome.package_power_w = at_setpoint.total_power_w;
    outcome.max_supply_temp_c = scanned.max_supply_temp_c;
    outcome.die_max_c = at_setpoint.die.max_c;
    outcome.tcase_c = at_setpoint.tcase_c;
    outcome.tcase_limit_exceeded =
        scanned.infeasible ||
        at_setpoint.tcase_c > config_.racks[r].tcase_limit_c;
    if (outcome.tcase_limit_exceeded) ++interval.qos_violations;

    RackInterval& rack = interval.racks[r];
    ++rack.jobs;
    rack.it_power_w += outcome.package_power_w;
    rack.headroom_c =
        rack.jobs == 1
            ? config_.racks[r].tcase_limit_c - outcome.tcase_c
            : std::min(rack.headroom_c,
                       config_.racks[r].tcase_limit_c - outcome.tcase_c);
    interval.jobs.push_back(std::move(outcome));
  }
  for (std::size_t r = 0; r < config_.racks.size(); ++r) {
    interval.it_power_w += interval.racks[r].it_power_w;
    interval.chiller_power_w += interval.racks[r].cooling.chiller_electrical_w;
    loads_[r].headroom_c = interval.racks[r].headroom_c;
  }

  if (controller_ != nullptr) {
    interval.control.active = true;
    interval.control.target = controller_->config().target;
    interval.control.error = controller_->last_error();
    interval.control.rack_bias_c = std::move(bias);
  }

  cooling::FacilityPower facility;
  facility.it_w = interval.it_power_w;
  facility.chiller_w = interval.chiller_power_w;
  facility.distribution_w = cooling::distribution_loss_w(interval.it_power_w);
  interval.pue = cooling::pue(facility);  // every interval runs a job

  // Accumulate the run totals in interval order — the same arithmetic, in
  // the same order, as the batch accumulation always used.
  summary_.total_it_energy_j += interval.it_power_w * duration_s;
  summary_.total_chiller_energy_j += interval.chiller_power_w * duration_s;
  summary_.total_facility_energy_j += facility.total_w() * duration_s;
  summary_.qos_violations += interval.qos_violations;

  const core::SolveCache::Stats cache_after =
      core::SolveCache::global()->stats();
  // Every request a solve did not execute for was served: a class
  // member, an in-flight wait or a stored entry.  Clamped so another cache
  // user's misses cannot wrap it.
  const std::size_t solves = cache_after.misses - cache_before.misses;
  const IntervalCounters counters{solves,
                                  requests - std::min(requests, solves)};
  summary_.counters.solves += counters.solves;
  summary_.counters.hits += counters.hits;
  span.arg("solves", static_cast<double>(counters.solves));
  span.arg("hits", static_cast<double>(counters.hits));
  span.arg("requests", static_cast<double>(requests));
  span.arg("lookups", static_cast<double>(lookups));

  // Dispatch on the caller's thread, in registration order, strictly after
  // the interval's parallel fan-out joined.
  try {
    for (FleetObserver* observer : observers_) {
      observer->on_interval(interval, counters);
    }
  } catch (...) {
    finished_ = true;  // observer contract: a throw spends the engine
    failed_ = true;
    throw;
  }

  ++next_interval_;
  return true;
}

void StreamingFleetEngine::run() {
  while (advance()) {
  }
}

// --------------------------------------------------------- the aggregator --

void FleetResultAggregator::on_interval(const FleetInterval& interval,
                                        const IntervalCounters& counters) {
  (void)counters;
  result_.intervals.push_back(interval);
}

void FleetResultAggregator::on_run_end(const FleetRunSummary& summary) {
  result_.duration_s = summary.duration_s;
  result_.total_it_energy_j = summary.total_it_energy_j;
  result_.total_chiller_energy_j = summary.total_chiller_energy_j;
  result_.total_facility_energy_j = summary.total_facility_energy_j;
  result_.avg_pue = summary.avg_pue;
  result_.qos_violations = summary.qos_violations;
}

// --------------------------------------------------------- the JSONL sink --

namespace {

/// One JSONL record, built in memory and handed to the stream in one
/// write (an `operator<<` on the stream costs a sentry and a virtual call,
/// and a job record takes a dozen).  Text is copied as is; counts and
/// doubles are formatted without the stream's locale.  A double gets 17
/// significant digits, which round-trip any finite IEEE double exactly
/// through a correctly-rounded strtod, so replays reconstruct the original
/// bits: `general` at precision 17 writes the bytes printf's %.17g writes
/// (not the shortest round trip, which would change every stream's bytes).
class Record {
 public:
  Record& operator<<(std::string_view text) {
    text_ += text;
    return *this;
  }
  Record& operator<<(std::size_t count) {
    char buf[24];
    text_.append(buf, std::to_chars(buf, buf + sizeof buf, count).ptr);
    return *this;
  }
  Record& operator<<(double value) {
    char buf[32];
    const auto [end, ec] = std::to_chars(buf, buf + sizeof buf, value,
                                         std::chars_format::general, 17);
    TPCOOL_ENSURE(ec == std::errc{}, "JSONL number does not fit its buffer");
    text_.append(buf, end);
    return *this;
  }
  /// Hand the record to `os` in one write; a failed stream throws
  /// `SinkError` naming the record's `type`.
  void write_to(std::ostream& os, const char* type) const {
    os.write(text_.data(), static_cast<std::streamsize>(text_.size()));
    if (!os) {
      throw SinkError(std::string("JSONL sink: writing the ") + type +
                      " record failed");
    }
  }
  [[nodiscard]] std::string take() { return std::move(text_); }

 private:
  std::string text_;
};

}  // namespace

std::size_t JsonlFleetSink::JobTextHash::operator()(
    const JobTextKey& key) const noexcept {
  std::size_t h = std::hash<std::string_view>{}(key.benchmark);
  for (const std::uint64_t bits : key.bits) hash_combine(h, bits);
  hash_combine(h, key.limit ? 1 : 0);
  return h;
}

std::string_view JsonlFleetSink::job_text(const JobOutcome& job) {
  JobTextKey key{job.benchmark,
                 {std::bit_cast<std::uint64_t>(job.qos_factor),
                  std::bit_cast<std::uint64_t>(job.package_power_w),
                  std::bit_cast<std::uint64_t>(job.max_supply_temp_c),
                  std::bit_cast<std::uint64_t>(job.die_max_c),
                  std::bit_cast<std::uint64_t>(job.tcase_c)},
                 job.tcase_limit_exceeded};
  if (const auto it = job_text_.find(key); it != job_text_.end()) {
    return it->second;
  }
  if (job_text_.size() >= kJobTextMemo) job_text_.clear();
  Record text;
  text << ",\"benchmark\":\"" << job.benchmark
       << "\",\"qos_factor\":" << job.qos_factor
       << ",\"package_power_w\":" << job.package_power_w
       << ",\"max_supply_temp_c\":" << job.max_supply_temp_c
       << ",\"die_max_c\":" << job.die_max_c << ",\"tcase_c\":" << job.tcase_c
       << ",\"limit\":" << (job.tcase_limit_exceeded ? "true" : "false")
       << "}";
  return job_text_.emplace(std::move(key), text.take()).first->second;
}

JsonlFleetSink::JsonlFleetSink(std::ostream& os) : os_(&os) {}

JsonlFleetSink::JsonlFleetSink(const std::string& path)
    : owned_(path), os_(&owned_) {
  TPCOOL_REQUIRE(static_cast<bool>(owned_),
                 "cannot open JSONL sink file '" + path + "'");
}

void JsonlFleetSink::on_run_begin(const FleetConfig& config,
                                  std::size_t stream_count,
                                  double total_duration_s) {
  Record line;
  line << "{\"type\":\"header\",\"schema\":\"tpcool-fleet-stream-v3\""
       << ",\"racks\":" << config.racks.size()
       << ",\"streams\":" << stream_count
       << ",\"placement\":\"" << config.placement
       << "\",\"duration_s\":" << total_duration_s << "}\n";
  line.write_to(*os_, "header");
}

void JsonlFleetSink::on_interval(const FleetInterval& interval,
                                 const IntervalCounters& counters) {
  Record line;
  line << "{\"type\":\"interval\",\"interval\":" << interval.interval
       << ",\"start_s\":" << interval.start_s
       << ",\"duration_s\":" << interval.duration_s
       << ",\"it_power_w\":" << interval.it_power_w
       << ",\"chiller_power_w\":" << interval.chiller_power_w
       << ",\"pue\":" << interval.pue
       << ",\"qos_violations\":" << interval.qos_violations
       << ",\"solves\":" << counters.solves << ",\"hits\":" << counters.hits;
  if (interval.control.active) {
    line << ",\"control\":{\"target\":" << interval.control.target
         << ",\"error\":" << interval.control.error << ",\"bias_c\":[";
    for (std::size_t r = 0; r < interval.control.rack_bias_c.size(); ++r) {
      line << (r ? "," : "") << interval.control.rack_bias_c[r];
    }
    line << "]}";
  }
  line << ",\"jobs\":[";
  for (std::size_t j = 0; j < interval.jobs.size(); ++j) {
    const JobOutcome& job = interval.jobs[j];
    line << (j ? "," : "") << "{\"stream\":" << job.stream
         << ",\"rack\":" << job.rack << job_text(job);
  }
  line << "],\"racks\":[";
  for (std::size_t r = 0; r < interval.racks.size(); ++r) {
    const RackInterval& rack = interval.racks[r];
    line << (r ? "," : "") << "{\"jobs\":" << rack.jobs
         << ",\"it_power_w\":" << rack.it_power_w
         << ",\"headroom_c\":" << rack.headroom_c
         << ",\"supply_temp_c\":" << rack.cooling.supply_temp_c
         << ",\"return_temp_c\":" << rack.cooling.return_temp_c
         << ",\"chiller_electrical_w\":" << rack.cooling.chiller_electrical_w
         << "}";
  }
  line << "]}\n";
  line.write_to(*os_, "interval");
}

void JsonlFleetSink::on_run_end(const FleetRunSummary& summary) {
  Record line;
  line << "{\"type\":\"summary\",\"intervals\":" << summary.intervals
       << ",\"duration_s\":" << summary.duration_s
       << ",\"total_it_energy_j\":" << summary.total_it_energy_j
       << ",\"total_chiller_energy_j\":" << summary.total_chiller_energy_j
       << ",\"total_facility_energy_j\":" << summary.total_facility_energy_j
       << ",\"avg_pue\":" << summary.avg_pue
       << ",\"qos_violations\":" << summary.qos_violations
       << ",\"solves\":" << summary.counters.solves
       << ",\"hits\":" << summary.counters.hits << "}\n";
  line.write_to(*os_, "summary");
  if (!os_->flush()) {
    throw SinkError("JSONL sink: flushing the stream after the summary "
                    "record failed");
  }
}

// -------------------------------------------------------------- the replay --

namespace {

/// Minimal extraction helpers for the sink's own single-line records (the
/// writer never emits whitespace, escapes, or nested arrays inside the
/// jobs/racks objects, so positional scanning is exact).

std::string_view find_value(std::string_view text, const std::string& key) {
  const std::string needle = "\"" + key + "\":";
  const std::size_t pos = text.find(needle);
  TPCOOL_REQUIRE(pos != std::string_view::npos,
                 "fleet JSONL replay: missing key '" + key + "'");
  return text.substr(pos + needle.size());
}

/// `token` as a double; the whole token must parse.
double parse_number(std::string_view token, const std::string& key) {
  const std::string text(token);
  char* end = nullptr;
  const double value = std::strtod(text.c_str(), &end);
  TPCOOL_REQUIRE(!text.empty() && end == text.c_str() + text.size(),
                 "fleet JSONL replay: '" + key + "' is not a number: '" +
                     text + "'");
  return value;
}

/// `token` as a count: a non-negative integer that fits `std::size_t`.
std::size_t parse_count(std::string_view token, const std::string& key) {
  std::size_t value = 0;
  const char* const last = token.data() + token.size();
  const auto [end, ec] = std::from_chars(token.data(), last, value);
  TPCOOL_REQUIRE(ec == std::errc{} && end == last,
                 "fleet JSONL replay: '" + key + "' is not a count: '" +
                     std::string(token) + "'");
  return value;
}

/// The scalar value of `key`: everything up to the next ',' or '}'.
std::string_view get_scalar(std::string_view text, const std::string& key) {
  const std::string_view tail = find_value(text, key);
  return tail.substr(0, tail.find_first_of(",}"));
}

double get_number(std::string_view text, const std::string& key) {
  return parse_number(get_scalar(text, key), key);
}

std::size_t get_count(std::string_view text, const std::string& key) {
  return parse_count(get_scalar(text, key), key);
}

/// `key`'s value, which must be exactly `true` or `false`.
bool get_bool(std::string_view text, const std::string& key) {
  const std::string_view token = get_scalar(text, key);
  TPCOOL_REQUIRE(token == "true" || token == "false",
                 "fleet JSONL replay: '" + key + "' is not a boolean: '" +
                     std::string(token) + "'");
  return token == "true";
}

std::string get_string(std::string_view text, const std::string& key) {
  std::string_view tail = find_value(text, key);
  TPCOOL_REQUIRE(!tail.empty() && tail.front() == '"',
                 "fleet JSONL replay: key '" + key + "' is not a string");
  tail.remove_prefix(1);
  const std::size_t end = tail.find('"');
  TPCOOL_REQUIRE(end != std::string_view::npos,
                 "fleet JSONL replay: unterminated string for '" + key + "'");
  return std::string(tail.substr(0, end));
}

/// The `[...]` payload of an array-valued key.  The sink's arrays contain
/// flat objects only, so the first ']' closes the array.
std::string_view get_array(std::string_view text, const std::string& key) {
  std::string_view tail = find_value(text, key);
  TPCOOL_REQUIRE(!tail.empty() && tail.front() == '[',
                 "fleet JSONL replay: key '" + key + "' is not an array");
  tail.remove_prefix(1);
  const std::size_t end = tail.find(']');
  TPCOOL_REQUIRE(end != std::string_view::npos,
                 "fleet JSONL replay: unterminated array for '" + key + "'");
  return tail.substr(0, end);
}

/// Whether the record carries `key` at all (the optional `control`).
bool has_key(std::string_view text, const std::string& key) {
  return text.find("\"" + key + "\":") != std::string_view::npos;
}

/// The `[...]` payload of `key`, split at its commas and parsed element
/// by element with `parse` (empty payload → empty).
template <typename Parse>
auto get_flat_array(std::string_view text, const std::string& key,
                    Parse parse) {
  const std::string_view payload = get_array(text, key);
  std::vector<decltype(parse(payload, key))> values;
  std::size_t pos = 0;
  while (pos < payload.size()) {
    std::size_t end = payload.find(',', pos);
    if (end == std::string_view::npos) end = payload.size();
    values.push_back(parse(payload.substr(pos, end - pos), key));
    pos = end + 1;
  }
  return values;
}

/// Split a flat `{...},{...}` array payload into its objects.
std::vector<std::string_view> split_objects(std::string_view array) {
  std::vector<std::string_view> objects;
  std::size_t pos = 0;
  while ((pos = array.find('{', pos)) != std::string_view::npos) {
    const std::size_t end = array.find('}', pos);
    TPCOOL_REQUIRE(end != std::string_view::npos,
                   "fleet JSONL replay: unterminated object");
    objects.push_back(array.substr(pos, end - pos + 1));
    pos = end + 1;
  }
  return objects;
}

}  // namespace

FleetResult replay_fleet_jsonl(std::istream& is) {
  FleetResult result;
  bool saw_header = false;
  bool saw_summary = false;
  std::string line;
  while (std::getline(is, line)) {
    if (line.empty()) continue;
    const std::string_view text(line);
    const std::string type = get_string(text, "type");
    if (type == "header") {
      TPCOOL_REQUIRE(get_string(text, "schema") == "tpcool-fleet-stream-v3",
                     "fleet JSONL replay: unexpected schema");
      saw_header = true;
    } else if (type == "interval") {
      TPCOOL_REQUIRE(saw_header,
                     "fleet JSONL replay: interval before header");
      FleetInterval interval;
      interval.interval = get_count(text, "interval");
      interval.start_s = get_number(text, "start_s");
      interval.duration_s = get_number(text, "duration_s");
      interval.it_power_w = get_number(text, "it_power_w");
      interval.chiller_power_w = get_number(text, "chiller_power_w");
      interval.pue = get_number(text, "pue");
      interval.qos_violations = get_count(text, "qos_violations");
      if (has_key(text, "control")) {
        interval.control.active = true;
        interval.control.target = get_number(text, "target");
        interval.control.error = get_number(text, "error");
        interval.control.rack_bias_c =
            get_flat_array(text, "bias_c", parse_number);
      }
      for (const std::string_view object :
           split_objects(get_array(text, "jobs"))) {
        JobOutcome job;
        job.stream = get_count(object, "stream");
        job.rack = get_count(object, "rack");
        job.benchmark = get_string(object, "benchmark");
        job.qos_factor = get_number(object, "qos_factor");
        job.package_power_w = get_number(object, "package_power_w");
        job.max_supply_temp_c = get_number(object, "max_supply_temp_c");
        job.die_max_c = get_number(object, "die_max_c");
        job.tcase_c = get_number(object, "tcase_c");
        job.tcase_limit_exceeded = get_bool(object, "limit");
        interval.jobs.push_back(std::move(job));
      }
      for (const std::string_view object :
           split_objects(get_array(text, "racks"))) {
        RackInterval rack;
        rack.jobs = get_count(object, "jobs");
        rack.it_power_w = get_number(object, "it_power_w");
        rack.headroom_c = get_number(object, "headroom_c");
        rack.cooling.supply_temp_c = get_number(object, "supply_temp_c");
        rack.cooling.return_temp_c = get_number(object, "return_temp_c");
        rack.cooling.chiller_electrical_w =
            get_number(object, "chiller_electrical_w");
        interval.racks.push_back(rack);
      }
      result.intervals.push_back(std::move(interval));
    } else if (type == "summary") {
      result.duration_s = get_number(text, "duration_s");
      result.total_it_energy_j = get_number(text, "total_it_energy_j");
      result.total_chiller_energy_j =
          get_number(text, "total_chiller_energy_j");
      result.total_facility_energy_j =
          get_number(text, "total_facility_energy_j");
      result.avg_pue = get_number(text, "avg_pue");
      result.qos_violations = get_count(text, "qos_violations");
      TPCOOL_REQUIRE(get_count(text, "intervals") == result.intervals.size(),
                     "fleet JSONL replay: interval count mismatch");
      saw_summary = true;
    } else {
      TPCOOL_REQUIRE(false, "fleet JSONL replay: unknown record type '" +
                                type + "'");
    }
  }
  TPCOOL_REQUIRE(saw_header && saw_summary,
                 "fleet JSONL replay: stream is missing header or summary");
  return result;
}

FleetResult replay_fleet_jsonl(const std::string& path) {
  std::ifstream is(path);
  TPCOOL_REQUIRE(static_cast<bool>(is),
                 "cannot open fleet JSONL file '" + path + "'");
  return replay_fleet_jsonl(is);
}

// ------------------------------------------------------------- the reducer --

FleetRollupReducer::FleetRollupReducer(double window_s)
    : window_s_(window_s) {
  TPCOOL_REQUIRE(window_s_ > 0.0 && std::isfinite(window_s_),
                 "rollup window must be positive and finite");
}

void FleetRollupReducer::flush() {
  if (!open_) return;
  if (current_.duration_s > 0.0) {
    current_.it_power_w_mean = weighted_it_ / current_.duration_s;
    current_.chiller_power_w_mean = weighted_chiller_ / current_.duration_s;
    current_.pue_mean = weighted_pue_ / current_.duration_s;
  }
  rollups_.push_back(current_);
  open_ = false;
  weighted_it_ = weighted_chiller_ = weighted_pue_ = 0.0;
}

void FleetRollupReducer::on_interval(const FleetInterval& interval,
                                     const IntervalCounters& counters) {
  // Intervals belong to the window containing their start time; windows
  // are aligned to multiples of window_s.
  const double window_start =
      std::floor(interval.start_s / window_s_) * window_s_;
  if (open_ && window_start > current_.start_s) flush();
  if (!open_) {
    open_ = true;
    current_ = Rollup{};
    current_.first_interval = interval.interval;
    current_.start_s = window_start;
    current_.it_power_w_min = interval.it_power_w;
    current_.it_power_w_max = interval.it_power_w;
    current_.chiller_power_w_min = interval.chiller_power_w;
    current_.chiller_power_w_max = interval.chiller_power_w;
    current_.pue_min = interval.pue;
    current_.pue_max = interval.pue;
  }
  ++current_.intervals;
  current_.duration_s += interval.duration_s;
  current_.it_power_w_min =
      std::min(current_.it_power_w_min, interval.it_power_w);
  current_.it_power_w_max =
      std::max(current_.it_power_w_max, interval.it_power_w);
  current_.chiller_power_w_min =
      std::min(current_.chiller_power_w_min, interval.chiller_power_w);
  current_.chiller_power_w_max =
      std::max(current_.chiller_power_w_max, interval.chiller_power_w);
  current_.pue_min = std::min(current_.pue_min, interval.pue);
  current_.pue_max = std::max(current_.pue_max, interval.pue);
  current_.qos_violations += interval.qos_violations;
  current_.solves += counters.solves;
  weighted_it_ += interval.it_power_w * interval.duration_s;
  weighted_chiller_ += interval.chiller_power_w * interval.duration_s;
  weighted_pue_ += interval.pue * interval.duration_s;
}

void FleetRollupReducer::on_run_end(const FleetRunSummary& summary) {
  (void)summary;
  flush();
}

}  // namespace tpcool::datacenter
