#include "tpcool/datacenter/transient.hpp"

#include <algorithm>
#include <cmath>
#include <string>
#include <unordered_map>
#include <utility>
#include <vector>

#include "tpcool/core/parallel.hpp"
#include "tpcool/core/pipeline_pool.hpp"
#include "tpcool/core/solve_cache.hpp"
#include "tpcool/thermal/grid.hpp"
#include "tpcool/thermal/stack.hpp"
#include "tpcool/util/error.hpp"
#include "tpcool/util/fnv.hpp"
#include "tpcool/util/telemetry.hpp"

namespace tpcool::datacenter {

namespace {

/// One segment per chunk, like the steady fleet: every (job, interval)
/// integrates independently.
constexpr std::size_t kSegmentGrain = 1;

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
/// a tolerance_c = 5e-4 run of the day below takes 97,030 steps instead of
/// 31,624.  Measured on perf/'s transient_day (three staggered daily
/// traces on the 2x2 fleet, 30 segments, default tolerance_c = 0.05)
/// against the same loop with every full step at 1e-9: the largest
/// per-segment move [°C] and the run's CG iterations are
///
///   full step  peak TCASE  peak die  end TCASE  CG iterations  steps
///   1e-9       —           —         —          130,163        1522
///   1e-8       1.5e-7      8.1e-6    2.4e-7     113,916        1522
///   1e-7       3.5e-6      6.6e-5    3.5e-6      97,364        1522
///   1e-6       4.4e-5      6.5e-4    3.7e-5      80,338        1522
///   1e-5       5.3e-4      2.8e-3    5.3e-4      64,046        1521
///   1e-4       7.5e-3      4.8e-1    2.1e-3      53,278        2108
///
/// 1e-6 (2e-5 × 0.05) is the loosest decade that keeps every peak within
/// 1e-3 °C.  At 1e-4 the solver error shows in the estimate, and the
/// controller takes 39% more steps.
constexpr double kTrialTolerance = 2e-5;

/// Under-relaxation factor for the evaporator heat-map update inside the
/// coupling loop.  At high heat flux the boiling HTC's feedback loop has
/// gain above one, so plain substitution oscillates between two boundary
/// states instead of converging; averaging successive heat maps halves
/// the effective gain and makes the iteration contract.
constexpr double kCouplingRelaxation = 0.5;

double max_abs_diff(const std::vector<double>& a,
                    const std::vector<double>& b) {
  double max = 0.0;
  for (std::size_t i = 0; i < a.size(); ++i) {
    max = std::max(max, std::abs(a[i] - b[i]));
  }
  return max;
}

/// Everything one segment integration needs, resolved serially before the
/// fan-out so the parallel closure touches no shared mutable state.
struct SegmentTask {
  const JobOutcome* job = nullptr;
  const workload::BenchmarkProfile* bench = nullptr;
  thermosyphon::OperatingPoint op;
  double duration_s = 0.0;
  std::vector<double> initial_field_c;  ///< Stream state entering the interval.
  std::string cache_key;
};

/// Integrate one transient segment on a pipeline.  A pure function of
/// (pipeline config, task, engine config): the boundary and power map
/// are rebuilt from the task, the state starts at the task's initial
/// field, and every numeric step is the same fixed-order double arithmetic
/// on any thread — which is what makes the cached value sound.
core::SimulationResult integrate_segment(core::ApproachPipeline& pipeline,
                                         const SegmentTask& task,
                                         const TransientEngineConfig& config) {
  // Runs on whatever pool thread claimed the chunk: these spans are the
  // repo's cross-thread nesting exercise (cg spans nest under them on
  // worker rings).  Cache hits replay the value without re-entering here,
  // so transient.segments counts cold integrations only.
  util::TraceSpan span("transient.segment");
  if (util::telemetry_enabled()) {
    static util::TelemetryCounter& segments =
        util::Telemetry::instance().counter("transient.segments");
    segments.add(1.0);
  }
  core::ServerModel& server = pipeline.server();
  server.set_operating_point(task.op);
  // The phase's power map, constant over the segment.
  const power::PackagePowerBreakdown breakdown =
      server.load(*task.bench, task.job->decision.point.config,
                  task.job->decision.cores, task.job->decision.idle_state);

  std::vector<double> t = task.initial_field_c;
  TPCOOL_REQUIRE(t.size() == server.thermal().cell_count(),
                 "segment initial field does not match the thermal grid");

  // Seed the thermosyphon coupling from the initial field itself: a
  // zero-heat syphon solve gives a boundary, whose heat extraction over
  // the field is the first evaporator map — derived, not carried in, so
  // the segment stays a pure function of its key.
  const thermal::StackModel& stack = server.stack();
  util::Grid2D<double> evap_heat(stack.grid.nx, stack.grid.ny, 0.0);
  server.set_evaporator_heat(evap_heat);
  evap_heat = server.evaporator_heat(t);

  core::SimulationResult result;
  result.power = breakdown;
  result.total_power_w = breakdown.total_w();
  result.active_cores = task.job->decision.cores;
  core::TransientSegmentInfo& seg = result.transient;
  thermal::StepController controller(config.step_control);
  // Boundary-loop convergence, summed over every adaptive trial: the
  // iterations run, and the trials that used all kCouplingIterations
  // without meeting the exit.
  std::size_t boundary_iterations = 0;
  std::size_t boundary_cap_hits = 0;
  const double trial_tolerance =
      std::max(thermal::ThermalModel::kStepTolerance,
               kTrialTolerance * config.step_control.tolerance_c);

  while (seg.sim_time_s < task.duration_s) {
    const double remaining_s = task.duration_s - seg.sim_time_s;
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
        dt_s = controller.propose(remaining_s);
        std::vector<double> full = t;
        std::vector<double> prev_full;
        util::Grid2D<double> trial_heat = evap_heat;
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
                                   0.1 * config.step_control.tolerance_c;
          ++boundary_iterations;
        }
        if (!converged) ++boundary_cap_hits;
        // The boundary is still the one the last full step saw.
        std::vector<double> half = t;
        const double error_c =
            server.thermal().step_transient_embedded(half, full, dt_s);
        if (controller.evaluate(dt_s, error_c)) {
          t = std::move(half);
          evap_heat = std::move(trial_heat);
          break;
        }
        ++seg.rejected_steps;
      }
    }
    // Landing on the boundary is exact by assignment, not accumulation.
    seg.sim_time_s =
        dt_s == remaining_s ? task.duration_s : seg.sim_time_s + dt_s;
    ++seg.steps;

    const core::PackageProbe probe = server.probe(t);
    seg.peak_tcase_c = std::max(seg.peak_tcase_c, probe.tcase_c);
    seg.peak_die_c = std::max(seg.peak_die_c, probe.die_max_c);
    result.tcase_c = probe.tcase_c;
  }
  TPCOOL_ENSURE(seg.sim_time_s == task.duration_s,
                "transient segment must land exactly on its boundary");
  seg.end_state_c = std::move(t);
  span.arg("duration_s", task.duration_s);
  span.arg("steps", static_cast<double>(seg.steps));
  span.arg("rejected_steps", static_cast<double>(seg.rejected_steps));
  span.arg("boundary_iterations", static_cast<double>(boundary_iterations));
  span.arg("boundary_cap_hits", static_cast<double>(boundary_cap_hits));
  return result;
}

}  // namespace

TransientFleetEngine::TransientFleetEngine(FleetConfig fleet,
                                           TransientEngineConfig config)
    : fleet_(std::move(fleet)), config_(config) {
  TPCOOL_REQUIRE(config_.fixed_dt_s >= 0.0,
                 "fixed dt must be zero (adaptive) or positive");
  // Validate the controller tuning at construction, not mid-fan-out.
  (void)thermal::StepController(config_.step_control);
}

TransientFleetResult TransientFleetEngine::run(
    const std::vector<workload::WorkloadTrace>& streams) {
  TransientFleetResult result;
  result.steady = fleet_.run(streams);
  result.duration_s = result.steady.duration_s;

  const FleetConfig& config = fleet_.config();
  core::SolveCache& cache = *core::SolveCache::global();

  // Per-rack constants: design water flow, cache scope, and grid size (for
  // sizing fresh stream states), resolved once, serially.
  std::vector<double> design_flow_kg_h(config.racks.size());
  std::vector<std::string> scope(config.racks.size());
  std::vector<std::size_t> cell_count(config.racks.size());
  for (std::size_t r = 0; r < config.racks.size(); ++r) {
    const RackSpec& spec = config.racks[r];
    design_flow_kg_h[r] =
        core::server_config_for(spec.approach, spec.cell_size_m)
            .operating_point.water_flow_kg_h;
    scope[r] = core::solve_scope(spec.approach, spec.cell_size_m);
    const thermal::StackModel stack = thermal::make_package_stack(
        core::server_config_for(spec.approach, spec.cell_size_m).stack);
    cell_count[r] = stack.grid.nx * stack.grid.ny * stack.layer_count();
  }

  // Thermal state follows the stream across intervals (the history a
  // migrating job's server accumulates — a modeling choice; see the header
  // doc).  A rack move that changes the grid resets to the start
  // temperature.
  std::unordered_map<std::size_t, std::vector<double>> stream_state;

  for (const FleetInterval& interval : result.steady.intervals) {
    util::TraceSpan interval_span("transient.interval");
    interval_span.arg("interval", static_cast<double>(interval.interval));
    interval_span.arg("jobs", static_cast<double>(interval.jobs.size()));
    if (util::telemetry_enabled()) {
      static util::TelemetryCounter& intervals =
          util::Telemetry::instance().counter("transient.intervals");
      intervals.add(1.0);
    }
    std::vector<SegmentTask> tasks;
    tasks.reserve(interval.jobs.size());
    for (const JobOutcome& job : interval.jobs) {
      const std::size_t r = job.rack;
      SegmentTask task;
      task.job = &job;
      task.bench = &workload::find_benchmark(job.benchmark);
      task.op = {.water_flow_kg_h = design_flow_kg_h[r],
                 .water_inlet_c = interval.racks[r].cooling.supply_temp_c};
      task.duration_s = interval.duration_s;
      const auto carried = stream_state.find(job.stream);
      if (carried != stream_state.end() &&
          carried->second.size() == cell_count[r]) {
        task.initial_field_c = carried->second;
      } else {
        task.initial_field_c.assign(cell_count[r],
                                    config_.start_temperature_c);
      }
      task.cache_key = core::segment_request_key(
          scope[r], *task.bench, job.decision.point.config,
          job.decision.cores, job.decision.idle_state, task.op,
          task.duration_s, config_.step_control, config_.fixed_dt_s,
          task.initial_field_c);
      tasks.push_back(std::move(task));
    }

    // Fan the interval's segments out, memoized under the segment key: a
    // warm rerun replays every segment from the cache, and only a miss
    // checks a pipeline out of the pool.
    const std::vector<core::SolveCache::ResultPtr> segments =
        core::parallel_map<core::SolveCache::ResultPtr>(
            tasks.size(), kSegmentGrain,
            [](std::size_t chunk) { return chunk; },
            [&](std::size_t&, std::size_t j) {
              return cache.get_or_compute_shared(tasks[j].cache_key, [&] {
                const RackSpec& spec = config.racks[tasks[j].job->rack];
                const core::PipelinePool::Lease pipeline =
                    core::PipelinePool::global().checkout(spec.approach,
                                                          spec.cell_size_m);
                return integrate_segment(*pipeline, tasks[j], config_);
              });
            });

    // Serial rollup + state chaining, in stream order.
    TransientInterval out;
    out.interval = interval.interval;
    out.start_s = interval.start_s;
    out.duration_s = interval.duration_s;
    out.jobs.reserve(tasks.size());
    for (std::size_t j = 0; j < tasks.size(); ++j) {
      const JobOutcome& job = *tasks[j].job;
      const core::TransientSegmentInfo& seg = segments[j]->transient;
      TPCOOL_ENSURE(seg.sim_time_s == interval.duration_s,
                    "transient segment drifted off the interval boundary");
      TransientJobOutcome outcome;
      outcome.stream = job.stream;
      outcome.rack = job.rack;
      outcome.benchmark = job.benchmark;
      outcome.peak_tcase_c = seg.peak_tcase_c;
      outcome.peak_die_c = seg.peak_die_c;
      outcome.end_tcase_c = segments[j]->tcase_c;
      outcome.steps = seg.steps;
      outcome.rejected_steps = seg.rejected_steps;
      outcome.tcase_limit_exceeded =
          seg.peak_tcase_c > config.racks[job.rack].tcase_limit_c;
      if (outcome.tcase_limit_exceeded) ++result.qos_violations;
      result.peak_tcase_c = std::max(result.peak_tcase_c, seg.peak_tcase_c);
      result.total_steps += seg.steps;
      result.total_rejected_steps += seg.rejected_steps;
      stream_state[job.stream] = seg.end_state_c;
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
