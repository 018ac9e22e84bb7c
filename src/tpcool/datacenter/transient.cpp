#include "tpcool/datacenter/transient.hpp"

#include <algorithm>
#include <compare>
#include <exception>
#include <map>
#include <string>
#include <utility>
#include <vector>

#include "tpcool/core/pipeline_pool.hpp"
#include "tpcool/core/server.hpp"
#include "tpcool/thermal/step_control.hpp"
#include "tpcool/util/error.hpp"
#include "tpcool/util/fnv.hpp"
#include "tpcool/util/parallel_map.hpp"
#include "tpcool/util/telemetry.hpp"

namespace tpcool::datacenter {

namespace {

/// Initial temperature of every stream's thermal state [°C].
constexpr double kStartTemperatureC = 35.0;

/// One segment of a stream: the stream's job in one interval.
struct Segment {
  const FleetInterval* interval = nullptr;
  const JobOutcome* job = nullptr;
  std::size_t phase = 0;  ///< Index into the run's distinct phases.
};

/// Whether two segments run the same phase: the same server config,
/// benchmark, placement and operating point, so the same power map and
/// boundary.  With the same start field and duration they integrate to the
/// same bits.
bool same_phase(const Segment& a, const Segment& b, const FleetConfig& fleet) {
  const JobOutcome& ja = *a.job;
  const JobOutcome& jb = *b.job;
  const RackSpec& ra = fleet.racks[ja.rack];
  const RackSpec& rb = fleet.racks[jb.rack];
  return ra.approach == rb.approach && ra.cell_size_m == rb.cell_size_m &&
         a.interval->racks[ja.rack].cooling.supply_temp_c ==
             b.interval->racks[jb.rack].cooling.supply_temp_c &&
         ja.benchmark == jb.benchmark &&
         ja.decision.point.config == jb.decision.point.config &&
         ja.decision.cores == jb.decision.cores &&
         ja.decision.idle_state == jb.decision.idle_state;
}

/// Set `server` up for `segment`'s phase: the rack's design water flow at
/// the interval's supply temperature, and the phase's power map.
void load_phase(core::ServerModel& server, const Segment& segment,
                const RackSpec& spec) {
  const JobOutcome& job = *segment.job;
  server.set_operating_point(
      {.water_flow_kg_h = core::server_config_for(spec.approach,
                                                  spec.cell_size_m)
                              .operating_point.water_flow_kg_h,
       .water_inlet_c =
           segment.interval->racks[job.rack].cooling.supply_temp_c});
  server.load(workload::find_benchmark(job.benchmark),
              job.decision.point.config, job.decision.cores,
              job.decision.idle_state);
}

/// The converged steady field of `segment`'s phase.
core::SteadyField steady_start(const Segment& segment, std::size_t phase,
                               const FleetConfig& fleet) {
  util::TraceSpan span("transient.steady_start");
  const RackSpec& spec = fleet.racks[segment.job->rack];
  const core::PipelinePool::Lease server =
      core::PipelinePool::global().checkout(spec.approach, spec.cell_size_m);
  load_phase(*server, segment, spec);
  core::SteadyField field =
      server->steady_field(kSteadyStartIterations, kSteadyStartStopC);
  span.arg("phase", static_cast<double>(phase));
  span.arg("iterations", static_cast<double>(field.iterations));
  span.arg("final_change_c", field.final_change_c);
  span.arg("converged", field.converged ? 1.0 : 0.0);
  return field;
}

/// Where a segment starts; the values are its span's `start` argument.
enum class Start { kUniform = 0, kSteady = 1, kInherited = 2 };

/// What a segment's integration is a function of, besides its phase's
/// server and steady field: the memo key of the segment runs.
struct RunKey {
  Start start = Start::kUniform;
  /// kSteady: the phase whose steady field it starts from; kInherited: the
  /// run whose end field it starts from.
  std::size_t from = 0;
  std::size_t phase = 0;
  double duration_s = 0.0;
  auto operator<=>(const RunKey&) const = default;
};

/// One integrated segment, shared by every segment with its key.
struct Run {
  RunKey key;
  const Segment* first = nullptr;  ///< The first segment that asked for it.
  bool done = false;
  core::AdvanceResult result;
  /// Ended on its phase's steady field (settled against it).
  bool on_steady = false;
  std::vector<double> end_c;  ///< End field, kept unless it is the steady one.
  std::exception_ptr error;   ///< Thrown only if a stream needs this run.
};

/// Integrate `segment` from field `t` (advanced in place) toward its
/// phase's steady field.  A pure function of (server config, the
/// segment's plan data, `t`, tolerance, steady field): `ServerModel::advance`
/// seeds its boundary from `t`, and every numeric step is the same
/// fixed-order double arithmetic on any thread, so the result does not
/// depend on which server instance or thread ran it.
core::AdvanceResult integrate_segment(const Segment& segment, Start start,
                                      std::vector<double>& t,
                                      const core::SteadyField& steady,
                                      const FleetConfig& fleet,
                                      double tolerance_c) {
  // Runs on whatever pool thread claimed the segment: these spans are the
  // repo's cross-thread nesting exercise (cg spans nest under them on
  // worker rings).
  util::TraceSpan span("transient.segment");
  if (util::telemetry_enabled()) {
    static util::TelemetryCounter& segments =
        util::Telemetry::instance().counter("transient.segments");
    segments.add(1.0);
  }
  const double duration_s = segment.interval->duration_s;
  const RackSpec& spec = fleet.racks[segment.job->rack];
  const core::PipelinePool::Lease server =
      core::PipelinePool::global().checkout(spec.approach, spec.cell_size_m);
  load_phase(*server, segment, spec);
  const core::AdvanceResult seg =
      server->advance(t, duration_s, tolerance_c,
                      steady.converged ? &steady.t : nullptr);
  span.arg("stream", static_cast<double>(segment.job->stream));
  span.arg("interval", static_cast<double>(segment.interval->interval));
  span.arg("duration_s", duration_s);
  span.arg("start", static_cast<double>(start));
  // A span keeps eight args: the rejected trials are in the outcome.
  span.arg("steps", static_cast<double>(seg.steps));
  span.arg("boundary_iterations", static_cast<double>(seg.boundary_iterations));
  span.arg("boundary_cap_hits", static_cast<double>(seg.boundary_cap_hits));
  span.arg("settled_s", seg.settled_s);
  return seg;
}

}  // namespace

TransientFleetEngine::TransientFleetEngine(FleetConfig fleet,
                                           TransientEngineConfig config)
    : fleet_(std::move(fleet)), config_(config) {
  // Validate the step tolerance at construction, not mid-fan-out.
  (void)thermal::StepController(config_.tolerance_c, thermal::kMaxStepS);
}

TransientFleetResult TransientFleetEngine::run(
    const std::vector<workload::WorkloadTrace>& streams) {
  TransientFleetResult result;
  result.steady = fleet_.run(streams);
  result.duration_s = result.steady.duration_s;

  const FleetConfig& config = fleet_.config();

  // Each stream's segments in interval order, each tagged with its phase
  // (the first segment of each distinct phase stands for it).
  std::vector<std::vector<Segment>> chains(streams.size());
  std::vector<Segment> phases;
  for (const FleetInterval& interval : result.steady.intervals) {
    for (const JobOutcome& job : interval.jobs) {
      Segment segment{&interval, &job};
      while (segment.phase < phases.size() &&
             !same_phase(phases[segment.phase], segment, config)) {
        ++segment.phase;
      }
      if (segment.phase == phases.size()) phases.push_back(segment);
      chains[job.stream].push_back(segment);
    }
  }

  // Every phase's steady field: the target of its own segments, and the
  // start of a segment whose predecessor in this phase settled.
  const std::vector<core::SteadyField> steady =
      util::parallel_map<core::SteadyField>(phases.size(), [&](std::size_t p) {
        return steady_start(phases[p], p, config);
      });

  // The memo of integrated segments, and the runs asked for but not yet
  // integrated.  Run ids follow the serial order in which they are first
  // asked for, so they do not depend on the thread count.
  std::vector<Run> runs;
  std::map<RunKey, std::size_t> memo;
  std::vector<std::size_t> batch;
  const auto ask = [&](const RunKey& key, const Segment& segment) {
    const auto [it, inserted] = memo.try_emplace(key, runs.size());
    if (inserted) {
      Run& run = runs.emplace_back();
      run.key = key;
      run.first = &segment;
      batch.push_back(it->second);
    }
    return it->second;
  };
  const auto integrate_batch = [&] {
    if (batch.empty()) return;
    std::vector<Run> done =
        util::parallel_map<Run>(batch.size(), [&](std::size_t i) {
          Run run = runs[batch[i]];
          const core::SteadyField& target = steady[run.key.phase];
          try {
            run.end_c =
                run.key.start == Start::kUniform
                    ? std::vector<double>(target.t.size(), kStartTemperatureC)
                : run.key.start == Start::kSteady ? steady[run.key.from].t
                                                  : runs[run.key.from].end_c;
            run.result =
                integrate_segment(*run.first, run.key.start, run.end_c,
                                  target, config, config_.tolerance_c);
          } catch (const util::PreconditionError& error) {
            // advance() knows no fleet: name the segment that asked for it.
            run.error = std::make_exception_ptr(util::PreconditionError(
                "transient interval " +
                std::to_string(run.first->interval->interval) +
                " of stream " + std::to_string(run.first->job->stream) +
                ": " + error.what()));
          } catch (...) {
            run.error = std::current_exception();
          }
          run.done = true;
          // A run that ended on its steady field needs no copy of it.
          run.on_steady = target.converged && run.result.settled;
          if (run.on_steady) run.end_c = {};
          return run;
        });
    for (std::size_t i = 0; i < batch.size(); ++i) {
      runs[batch[i]] = std::move(done[i]);
    }
    batch.clear();
  };
  // A segment starts from the uniform field at a stream's start or after
  // a move to another grid, and from its predecessor's end field otherwise:
  // its phase's steady field when the predecessor settled on it.  A null
  // `predecessor` (its final run) assumes that it settled.
  const auto start_key = [&](const std::vector<Segment>& chain,
                             std::size_t k, const Run* predecessor) {
    const Segment& segment = chain[k];
    RunKey key{.phase = segment.phase,
               .duration_s = segment.interval->duration_s};
    if (k == 0 ||
        steady[chain[k - 1].phase].t.size() != steady[segment.phase].t.size()) {
      return key;
    }
    if (predecessor == nullptr || predecessor->on_steady) {
      key.start = Start::kSteady;
      key.from = chain[k - 1].phase;
    } else {
      key.start = Start::kInherited;
      key.from = static_cast<std::size_t>(predecessor - runs.data());
    }
    return key;
  };

  // Speculate: integrate every segment at once as if its predecessor
  // settles (a settled segment has reached its phase's steady field, so its
  // successor need not wait for it).
  for (const std::vector<Segment>& chain : chains) {
    for (std::size_t k = 0; k < chain.size(); ++k) {
      const RunKey key = start_key(chain, k, nullptr);
      // A predecessor whose steady field did not converge cannot end on it.
      if (key.start == Start::kSteady && !steady[key.from].converged) continue;
      (void)ask(key, chain[k]);
    }
  }
  integrate_batch();
  // Then walk each chain by the serial rule: a segment whose predecessor
  // did not settle runs again from its end field, in rounds, each segment
  // once its predecessor has run.
  std::vector<std::vector<std::size_t>> run_of(chains.size());
  while (true) {
    for (std::size_t s = 0; s < chains.size(); ++s) {
      while (run_of[s].size() < chains[s].size()) {
        const std::size_t k = run_of[s].size();
        const std::size_t id = ask(
            start_key(chains[s], k, k > 0 ? &runs[run_of[s][k - 1]] : nullptr),
            chains[s][k]);
        if (!runs[id].done) break;
        if (runs[id].error) std::rethrow_exception(runs[id].error);
        run_of[s].push_back(id);
      }
    }
    if (batch.empty()) break;
    integrate_batch();
  }

  // Serial rollup in interval, then stream order.
  std::vector<std::size_t> next(chains.size(), 0);
  result.intervals.reserve(result.steady.intervals.size());
  for (const FleetInterval& interval : result.steady.intervals) {
    if (util::telemetry_enabled()) {
      static util::TelemetryCounter& intervals =
          util::Telemetry::instance().counter("transient.intervals");
      intervals.add(1.0);
    }
    TransientInterval out;
    out.interval = interval.interval;
    out.start_s = interval.start_s;
    out.duration_s = interval.duration_s;
    out.jobs.reserve(interval.jobs.size());
    for (const JobOutcome& job : interval.jobs) {
      const core::AdvanceResult& seg =
          runs[run_of[job.stream][next[job.stream]++]].result;
      const RackSpec& spec = config.racks[job.rack];
      TransientJobOutcome outcome;
      outcome.stream = job.stream;
      outcome.rack = job.rack;
      outcome.benchmark = job.benchmark;
      outcome.peak_tcase_c = seg.peak_tcase_c;
      outcome.peak_die_c = seg.peak_die_c;
      outcome.end_tcase_c = seg.end_tcase_c;
      outcome.steps = seg.steps;
      outcome.rejected_steps = seg.rejected_steps;
      outcome.tcase_limit_exceeded = seg.peak_tcase_c > spec.tcase_limit_c;
      if (outcome.tcase_limit_exceeded) ++result.qos_violations;
      result.peak_tcase_c = std::max(result.peak_tcase_c, outcome.peak_tcase_c);
      result.total_steps += outcome.steps;
      result.total_rejected_steps += outcome.rejected_steps;
      out.jobs.push_back(std::move(outcome));
    }
    result.intervals.push_back(std::move(out));
  }
  return result;
}

std::uint64_t transient_digest(const TransientFleetResult& result) {
  using util::fnv_f64;
  using util::fnv_u64;
  std::uint64_t digest = fleet_digest(result.steady);
  fnv_u64(digest, result.intervals.size());
  for (const TransientInterval& interval : result.intervals) {
    fnv_f64(digest, interval.start_s);
    fnv_f64(digest, interval.duration_s);
    for (const TransientJobOutcome& job : interval.jobs) {
      fnv_u64(digest, job.stream);
      fnv_u64(digest, job.rack);
      fnv_f64(digest, job.peak_tcase_c);
      fnv_f64(digest, job.peak_die_c);
      fnv_f64(digest, job.end_tcase_c);
      fnv_u64(digest, job.steps);
      fnv_u64(digest, job.rejected_steps);
      fnv_u64(digest, job.tcase_limit_exceeded ? 1 : 0);
    }
  }
  fnv_f64(digest, result.duration_s);
  fnv_f64(digest, result.peak_tcase_c);
  fnv_u64(digest, result.total_steps);
  fnv_u64(digest, result.total_rejected_steps);
  fnv_u64(digest, result.qos_violations);
  return digest;
}

}  // namespace tpcool::datacenter
