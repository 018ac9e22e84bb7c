#include "tpcool/datacenter/transient.hpp"

#include <algorithm>
#include <deque>
#include <exception>
#include <future>
#include <string>
#include <utility>
#include <vector>

#include "tpcool/core/pipeline_pool.hpp"
#include "tpcool/thermal/grid.hpp"
#include "tpcool/thermal/step_control.hpp"
#include "tpcool/util/error.hpp"
#include "tpcool/util/fnv.hpp"
#include "tpcool/util/parallel_map.hpp"
#include "tpcool/util/telemetry.hpp"

namespace tpcool::datacenter {

namespace {

/// Initial temperature of every stream's thermal state [°C].
constexpr double kStartTemperatureC = 35.0;

/// A segment that several chains share: its lowest stream integrates it and
/// publishes the outcome and end field here, then readies `done`; the other
/// streams wait for it.
struct SharedSegment {
  core::AdvanceResult result;
  std::vector<double> end_state_c;
  std::promise<void> promise;
  std::shared_future<void> done = promise.get_future().share();
};

/// One segment of a stream's chain: the stream's job in one interval.
struct ChainLink {
  const FleetInterval* interval = nullptr;
  const JobOutcome* job = nullptr;
  /// Non-null when chains share this segment: this link publishes the
  /// result if `publishes`, and otherwise replays it.
  SharedSegment* shared = nullptr;
  bool publishes = false;
};

/// Integrate `link`'s segment on `server`, advancing field `t` in place,
/// with the rack's design water flow.  A pure function of (server config,
/// the link's plan data, flow, `t`, tolerance): `ServerModel::advance`
/// seeds its boundary from `t`, and every numeric step is the same
/// fixed-order double arithmetic on any thread, so the result does not
/// depend on which server instance or thread ran it.
core::AdvanceResult integrate_segment(core::ServerModel& server,
                                      const ChainLink& link,
                                      double design_flow_kg_h,
                                      std::vector<double>& t,
                                      double tolerance_c) {
  // Runs on whatever pool thread claimed the chain: these spans are the
  // repo's cross-thread nesting exercise (cg spans nest under them on
  // worker rings).
  util::TraceSpan span("transient.segment");
  if (util::telemetry_enabled()) {
    static util::TelemetryCounter& segments =
        util::Telemetry::instance().counter("transient.segments");
    segments.add(1.0);
  }
  const JobOutcome& job = *link.job;
  const double duration_s = link.interval->duration_s;
  server.set_operating_point(
      {.water_flow_kg_h = design_flow_kg_h,
       .water_inlet_c = link.interval->racks[job.rack].cooling.supply_temp_c});
  // The phase's power map, constant over the segment.
  server.load(workload::find_benchmark(job.benchmark),
              job.decision.point.config, job.decision.cores,
              job.decision.idle_state);
  const core::AdvanceResult seg =
      server.advance(t, duration_s, tolerance_c);
  span.arg("stream", static_cast<double>(job.stream));
  span.arg("interval", static_cast<double>(link.interval->interval));
  span.arg("duration_s", duration_s);
  span.arg("steps", static_cast<double>(seg.steps));
  span.arg("rejected_steps", static_cast<double>(seg.rejected_steps));
  span.arg("boundary_iterations", static_cast<double>(seg.boundary_iterations));
  span.arg("boundary_cap_hits", static_cast<double>(seg.boundary_cap_hits));
  span.arg("settled_s", seg.settled_s);
  return seg;
}

/// Whether two links integrate to the same bits from the same initial field:
/// the same server config, phase, placement, operating point and duration.
bool same_segment(const ChainLink& a, const ChainLink& b,
                  const FleetConfig& fleet) {
  const JobOutcome& ja = *a.job;
  const JobOutcome& jb = *b.job;
  const RackSpec& ra = fleet.racks[ja.rack];
  const RackSpec& rb = fleet.racks[jb.rack];
  return ra.approach == rb.approach && ra.cell_size_m == rb.cell_size_m &&
         a.interval->racks[ja.rack].cooling.supply_temp_c ==
             b.interval->racks[jb.rack].cooling.supply_temp_c &&
         a.interval->duration_s == b.interval->duration_s &&
         ja.benchmark == jb.benchmark &&
         ja.decision.point.config == jb.decision.point.config &&
         ja.decision.cores == jb.decision.cores &&
         ja.decision.idle_state == jb.decision.idle_state;
}

/// Walk one stream's chain in interval order and return its outcomes.
/// Only read-only plan data, the chain's own state and the shared segments
/// are touched, so chains run concurrently.  Each integrated segment checks
/// a server out of the pool and advances the chain's state in place, so
/// memory stays O(streams × cells) plus one field per shared segment.
std::vector<TransientJobOutcome> walk_chain(
    const std::vector<ChainLink>& chain, const FleetConfig& fleet,
    const TransientEngineConfig& config) {
  // Thermal state follows the stream across intervals (the history a
  // migrating job's server accumulates — a modeling choice; see the header
  // doc).  A rack move that changes the grid resets to the start
  // temperature.
  std::vector<double> state;
  std::vector<TransientJobOutcome> outcomes;
  outcomes.reserve(chain.size());
  for (const ChainLink& link : chain) {
    const JobOutcome& job = *link.job;
    const RackSpec& spec = fleet.racks[job.rack];
    core::AdvanceResult seg;
    if (link.shared && !link.publishes) {
      link.shared->done.get();
      seg = link.shared->result;
      state = link.shared->end_state_c;
    } else {
      try {
        const core::PipelinePool::Lease server =
            core::PipelinePool::global().checkout(spec.approach,
                                                  spec.cell_size_m);
        const std::size_t cells = server->thermal().cell_count();
        if (state.size() != cells) state.assign(cells, kStartTemperatureC);
        const double design_flow_kg_h =
            core::server_config_for(spec.approach, spec.cell_size_m)
                .operating_point.water_flow_kg_h;
        seg = integrate_segment(*server, link, design_flow_kg_h, state,
                                config.tolerance_c);
      } catch (const util::PreconditionError& error) {
        // advance() knows no fleet: name the segment that failed.  Chains
        // waiting on it fail with it instead of hanging.
        const util::PreconditionError named(
            "transient interval " + std::to_string(link.interval->interval) +
            " of stream " + std::to_string(job.stream) + ": " + error.what());
        if (link.shared) {
          link.shared->promise.set_exception(std::make_exception_ptr(named));
        }
        throw named;
      } catch (...) {
        if (link.shared) {
          link.shared->promise.set_exception(std::current_exception());
        }
        throw;
      }
      if (link.shared) {
        link.shared->result = seg;
        link.shared->end_state_c = state;
        link.shared->promise.set_value();
      }
    }
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
    outcomes.push_back(std::move(outcome));
  }
  return outcomes;
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

  // Each stream's segments in interval order.  A segment depends only on
  // its own stream's previous end state and on the steady plan above, so
  // every stream's chain runs as one task, with no barrier between
  // intervals.
  std::vector<std::vector<ChainLink>> chains(streams.size());
  for (const FleetInterval& interval : result.steady.intervals) {
    for (const JobOutcome& job : interval.jobs) {
      chains[job.stream].push_back({&interval, &job});
    }
  }
  // Chains that agree on every link up to k start segment k from the same
  // field, so it integrates to the same bits in each: the lowest such
  // stream integrates it and the others replay its result (identical
  // streams in a trace set do this).  The pool claims chains in index
  // order, so a publisher is always running before a chain waits on it.
  std::deque<SharedSegment> shared;  // stable addresses
  for (std::size_t s = 1; s < chains.size(); ++s) {
    for (std::size_t r = 0; r < s; ++r) {
      for (std::size_t k = 0;
           k < std::min(chains[r].size(), chains[s].size()) &&
           same_segment(chains[r][k], chains[s][k], config);
           ++k) {
        ChainLink& theirs = chains[r][k];
        ChainLink& mine = chains[s][k];
        if (mine.shared != nullptr) continue;  // a lower stream owns it
        if (theirs.shared == nullptr) {
          theirs.shared = &shared.emplace_back();
          theirs.publishes = true;
        }
        mine.shared = theirs.shared;
      }
    }
  }
  std::vector<std::vector<TransientJobOutcome>> outcomes =
      util::parallel_map<std::vector<TransientJobOutcome>>(
          chains.size(), [&](std::size_t s) {
            return walk_chain(chains[s], config, config_);
          });

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
      TransientJobOutcome& outcome = outcomes[job.stream][next[job.stream]++];
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
