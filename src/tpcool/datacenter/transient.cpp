#include "tpcool/datacenter/transient.hpp"

#include <algorithm>
#include <cmath>
#include <deque>
#include <exception>
#include <future>
#include <string>
#include <utility>
#include <vector>

#include "tpcool/core/pipeline_pool.hpp"
#include "tpcool/thermal/grid.hpp"
#include "tpcool/thermal/stack.hpp"
#include "tpcool/thermal/step_control.hpp"
#include "tpcool/util/error.hpp"
#include "tpcool/util/fnv.hpp"
#include "tpcool/util/parallel_map.hpp"
#include "tpcool/util/telemetry.hpp"

namespace tpcool::datacenter {

namespace {

/// Initial temperature of every stream's thermal state [°C].
constexpr double kStartTemperatureC = 35.0;

/// Cap on the thermosyphon-coupling iterations per adaptive trial step
/// (the transient analogue of ServerModel::coupled_solve's fixed point).
/// A boundary lagged one whole step behind sustains a discrete limit cycle
/// on high-power segments — the boiling HTC's strong heat-flux feedback
/// re-excites the package's fast surface mode at every commit, which puts
/// a dt-independent floor under the step-doubling error estimate and
/// locks the controller at millisecond steps.  Converging the boundary
/// against the trial's end state breaks the cycle.  Each iteration solves
/// one full backward-Euler step under the current boundary, warm-started
/// from the previous iterate; iteration stops early once successive full
/// steps agree to a tenth of the step tolerance.  Only then are the two
/// committed half steps solved, under the boundary the last full step saw.
constexpr int kCouplingIterations = 8;

/// Relative CG residual of the trial's full steps, per °C of the step
/// tolerance.  A full step is never committed: it only feeds the next
/// boundary update and, at the end, the step-doubling estimate, so it need
/// not be solved to the committed half steps' ThermalModel::kStepTolerance
/// (the inexact-solve argument of Eisenstat & Walker 1996, SIAM J. Sci.
/// Comput. 17(1), as for kForcing in core/server.cpp).  Its solver error
/// must stay well below both the boundary loop's exit (0.1 × tolerance_c)
/// and the estimate itself, so it scales with tolerance_c: at a fixed 1e-6,
/// a tolerance_c = 5e-4 run of the day below takes 96,847 steps instead of
/// 31,445.  Measured on perf/'s transient_day (three staggered daily
/// traces on the 2x2 fleet, 30 segments, default tolerance_c = 0.05)
/// against the same loop with every full step at 1e-9: the largest
/// per-segment move [°C] and the run's CG iterations are
///
///   full step  peak TCASE  peak die  end TCASE  CG iterations  steps
///   1e-9       —           —         —          107,161        1350
///   1e-8       2.8e-7      3.3e-7    2.8e-7      94,262        1350
///   1e-7       6.3e-6      1.0e-6    2.3e-6      81,123        1350
///   1e-6       6.7e-5      4.1e-5    3.9e-5      67,081        1350
///   1e-5       3.5e-3      4.6e-4    4.1e-4      53,179        1357
///   1e-4       9.6e-3      2.1e-3    4.1e-3      44,177        1953
///
/// 1e-6 (2e-5 × 0.05) is the loosest decade that keeps every peak within
/// 1e-3 °C.  At 1e-4 the solver error shows in the estimate, and the
/// controller takes 45% more steps.
constexpr double kTrialTolerance = 2e-5;

/// Under-relaxation factor for the evaporator heat-map update inside the
/// coupling loop.  At high heat flux the boiling HTC's feedback loop has
/// gain above one, so plain substitution oscillates between two boundary
/// states instead of converging; averaging successive heat maps halves
/// the effective gain and makes the iteration contract.
constexpr double kCouplingRelaxation = 0.5;

/// Safety factor on the first adaptive step, dt₀ = 0.9·√(4·tol/‖T''‖∞):
/// the step-doubling estimate is about dt²/4·‖T''‖, so this lands the first
/// trial's estimate just below the tolerance.  On perf/'s transient day,
/// 0.9 and 2 reject no first step (7,288 and 7,236 CG solves), and 4 and 8
/// reject 45 and 63 trials (7,490 and 7,639).  But at 2 a segment whose
/// power falls takes its first probe after the die has cooled: on the
/// one-server daily trace, peak die is 0.32 °C off a tight-tolerance
/// reference, against 0.07 °C at 0.9.
constexpr double kFirstStepSafety = 0.9;

/// A step at the largest step length, with a converged boundary, that
/// moves no cell by more than this fraction of tolerance_c has settled:
/// power is constant within a segment, so the segment ends on that field.
constexpr double kSettledFraction = 0.1;

/// Most steps a segment may take: up front for the fixed-period
/// integrator, whose step count the period fixes (1000 s at 1 ms is 1e6
/// steps, refused before any segment starts), and as a budget on the
/// trials (accepted plus rejected) the adaptive integrator actually takes,
/// which throws mid-run.  An adaptive segment ends once it settles, so its
/// trials do not grow with phase length (a 1e12 s x264 phase takes 44
/// steps); perf/'s transient day takes at most 63 per segment.
constexpr std::uint64_t kMaxSegmentSteps = 100'000;

double max_abs_diff(const std::vector<double>& a,
                    const std::vector<double>& b) {
  double max = 0.0;
  for (std::size_t i = 0; i < a.size(); ++i) {
    max = std::max(max, std::abs(a[i] - b[i]));
  }
  return max;
}

/// What one segment integration hands back to its chain.
struct SegmentResult {
  std::vector<double> end_state_c;  ///< Field at the interval boundary.
  double peak_tcase_c = 0.0;        ///< Max TCASE over the segment's steps.
  double peak_die_c = 0.0;          ///< Max die temperature over the steps.
  double end_tcase_c = 0.0;         ///< TCASE at the interval boundary.
  std::uint64_t steps = 0;           ///< Accepted steps.
  std::uint64_t rejected_steps = 0;  ///< Trials redone at a smaller dt.
};

/// A segment that several chains share: its lowest stream integrates it and
/// publishes the result here, and the other streams wait for it.
struct SharedSegment {
  std::promise<SegmentResult> promise;
  std::shared_future<SegmentResult> result = promise.get_future().share();
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

/// Integrate `link`'s segment on `server`, starting from field `t`, with
/// the rack's design water flow.  A pure function of (server config, the
/// link's plan data, flow, `t`, engine config): the boundary and power map
/// are rebuilt from the plan, and every numeric step is the same
/// fixed-order double arithmetic on any thread, so the result does not
/// depend on which server instance or thread ran it.
SegmentResult integrate_segment(core::ServerModel& server,
                                const ChainLink& link, double design_flow_kg_h,
                                std::vector<double> t,
                                const TransientEngineConfig& config) {
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

  TPCOOL_REQUIRE(t.size() == server.thermal().cell_count(),
                 "segment initial field does not match the thermal grid");

  // Seed the thermosyphon coupling from the initial field itself: a
  // zero-heat syphon solve gives a boundary, whose heat extraction over
  // the field is the first evaporator map — derived, not carried in, so
  // the segment stays a pure function of its inputs.
  const thermal::StackModel& stack = server.stack();
  util::Grid2D<double> evap_heat(stack.grid.nx, stack.grid.ny, 0.0);
  server.set_evaporator_heat(evap_heat);
  evap_heat = server.evaporator_heat(t);

  // The adaptive first step comes from the segment's own dynamics: the
  // field's curvature under the boundary it starts from.
  double first_step_s = thermal::kMaxStepS;
  if (config.fixed_dt_s <= 0.0) {
    server.set_evaporator_heat(evap_heat);
    const double curvature = server.thermal().second_derivative_norm(t);
    if (curvature > 0.0) {
      first_step_s = kFirstStepSafety *
                     std::sqrt(4.0 * config.tolerance_c / curvature);
    }
  }

  SegmentResult seg;
  double sim_time_s = 0.0;  // accepted-dt sum
  bool settled = false;
  double settled_s = duration_s;  // when the segment settled, if it did
  thermal::StepController controller(config.tolerance_c, first_step_s);
  // Boundary-loop convergence, summed over every adaptive trial: the
  // iterations run, and the trials that used all kCouplingIterations
  // without meeting the exit.
  std::size_t boundary_iterations = 0;
  std::size_t boundary_cap_hits = 0;
  const double trial_tolerance =
      std::max(thermal::ThermalModel::kStepTolerance,
               kTrialTolerance * config.tolerance_c);
  // A trial's fields and boundary heat, reused by every trial.
  std::vector<double> full;
  std::vector<double> prev_full;
  std::vector<double> half;
  util::Grid2D<double> trial_heat;

  while (sim_time_s < duration_s) {
    const double remaining_s = duration_s - sim_time_s;
    double dt_s = 0.0;
    if (config.fixed_dt_s > 0.0) {
      // Fixed-period baseline: the boundary lags one step behind, and the
      // final step is clamped to the remainder.
      dt_s = std::min(config.fixed_dt_s, remaining_s);
      evap_heat = server.step_lagged(t, evap_heat, dt_s);
    } else {
      // Adaptive: shrink the proposal until the embedded estimate passes.
      // Each trial converges the boundary against its own full step (see
      // kCouplingIterations) so the estimate measures the segment's real
      // dynamics, not boundary-lag noise.
      while (true) {
        TPCOOL_REQUIRE(
            seg.steps + seg.rejected_steps < kMaxSegmentSteps,
            "transient interval " + std::to_string(link.interval->interval) +
                " of stream " + std::to_string(job.stream) + " took " +
                std::to_string(kMaxSegmentSteps) + " trials and reached " +
                std::to_string(sim_time_s) + " of " +
                std::to_string(duration_s) + " s");
        dt_s = controller.propose(remaining_s);
        full = t;
        trial_heat = evap_heat;
        bool converged = false;
        for (int k = 0; k < kCouplingIterations && !converged; ++k) {
          server.set_evaporator_heat(trial_heat);
          prev_full = full;
          server.thermal().step_transient(t, full, dt_s, trial_tolerance);
          const util::Grid2D<double> next_heat = server.evaporator_heat(full);
          for (std::size_t i = 0; i < trial_heat.data().size(); ++i) {
            trial_heat.data()[i] += kCouplingRelaxation *
                                    (next_heat.data()[i] -
                                     trial_heat.data()[i]);
          }
          converged = k > 0 && max_abs_diff(full, prev_full) <=
                                   0.1 * config.tolerance_c;
          ++boundary_iterations;
        }
        if (!converged) ++boundary_cap_hits;
        // The boundary is still the one the last full step saw.
        half = t;
        const double error_c =
            server.thermal().step_transient_embedded(half, full, dt_s);
        if (controller.evaluate(dt_s, error_c)) {
          settled = dt_s == thermal::kMaxStepS && converged &&
                    max_abs_diff(half, t) <=
                        kSettledFraction * config.tolerance_c;
          std::swap(t, half);
          std::swap(evap_heat, trial_heat);
          break;
        }
        ++seg.rejected_steps;
      }
    }
    // Landing on the boundary is exact by assignment, not accumulation.
    sim_time_s = dt_s == remaining_s ? duration_s : sim_time_s + dt_s;
    if (settled) {
      // The segment ends on the field it settled on; its probe below is the
      // last, so the peaks and end TCASE are the ones already taken.
      settled_s = sim_time_s;
      sim_time_s = duration_s;
    }
    ++seg.steps;

    const core::PackageProbe probe = server.probe(t);
    seg.peak_tcase_c = std::max(seg.peak_tcase_c, probe.tcase_c);
    seg.peak_die_c = std::max(seg.peak_die_c, probe.die_max_c);
    seg.end_tcase_c = probe.tcase_c;
  }
  TPCOOL_ENSURE(sim_time_s == duration_s,
                "transient segment must land exactly on its boundary");
  seg.end_state_c = std::move(t);
  span.arg("stream", static_cast<double>(job.stream));
  span.arg("interval", static_cast<double>(link.interval->interval));
  span.arg("duration_s", duration_s);
  span.arg("steps", static_cast<double>(seg.steps));
  span.arg("rejected_steps", static_cast<double>(seg.rejected_steps));
  span.arg("boundary_iterations", static_cast<double>(boundary_iterations));
  span.arg("boundary_cap_hits", static_cast<double>(boundary_cap_hits));
  span.arg("settled_s", settled_s);
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
/// a server out of the pool, and the state moves into the segment and
/// back out, so memory stays O(streams × cells).
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
    SegmentResult seg;
    if (link.shared && !link.publishes) {
      seg = link.shared->result.get();
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
        seg = integrate_segment(*server, link, design_flow_kg_h,
                                std::move(state), config);
      } catch (...) {
        // Chains waiting on this segment fail with it instead of hanging.
        if (link.shared) {
          link.shared->promise.set_exception(std::current_exception());
        }
        throw;
      }
      if (link.shared) link.shared->promise.set_value(seg);
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
    state = std::move(seg.end_state_c);
  }
  return outcomes;
}

}  // namespace

TransientFleetEngine::TransientFleetEngine(FleetConfig fleet,
                                           TransientEngineConfig config)
    : fleet_(std::move(fleet)), config_(config) {
  TPCOOL_REQUIRE(config_.fixed_dt_s >= 0.0,
                 "fixed dt must be zero (adaptive) or positive");
  // Validate the step tolerance at construction, not mid-fan-out.
  (void)thermal::StepController(config_.tolerance_c, thermal::kMaxStepS);
}

TransientFleetResult TransientFleetEngine::run(
    const std::vector<workload::WorkloadTrace>& streams) {
  TransientFleetResult result;
  result.steady = fleet_.run(streams);
  result.duration_s = result.steady.duration_s;

  const FleetConfig& config = fleet_.config();

  // The fixed-period integrator's step count is known in advance: refuse a
  // segment it cannot end within the step budget, before any chain starts.
  for (const FleetInterval& interval : result.steady.intervals) {
    // ceil(x) <= N exactly when x <= N, for a whole N.
    if (config_.fixed_dt_s <= 0.0 ||
        interval.duration_s / config_.fixed_dt_s <=
            static_cast<double>(kMaxSegmentSteps)) {
      continue;
    }
    std::string streams_text;
    for (const JobOutcome& job : interval.jobs) {
      streams_text += (streams_text.empty() ? "" : ",");
      streams_text += std::to_string(job.stream);
    }
    TPCOOL_REQUIRE(false, "transient interval " +
                              std::to_string(interval.interval) + " lasts " +
                              std::to_string(interval.duration_s) +
                              " s, more than " +
                              std::to_string(kMaxSegmentSteps) +
                              " steps of the fixed period; streams " +
                              streams_text);
  }

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
