#pragma once
/// \file streaming.hpp
/// \brief Incremental fleet simulation with pluggable per-interval metric
///        observers — the streaming counterpart of `FleetModel::run`,
///        patterned on the observer/reduction idiom of large long-running
///        parallel codes (SpECTRE's `ParallelAlgorithms/` + `IO/`).
///
/// `StreamingFleetEngine` computes the fleet timeline one interval at a
/// time and hands each finished `FleetInterval` to a registry of
/// `FleetObserver`s instead of accumulating the whole result in memory, so
/// an unbounded-length trace runs at bounded memory: the engine never
/// holds more than `kMaxHeldIntervals` intervals, independent of trace
/// length (`peak_held_intervals()` reports the observed peak; perf/'s
/// `fleet_stream` workload and `streaming_test` assert it).
///
/// Observer contract (the full specification lives in
/// docs/OBSERVABILITY.md):
///  - **Ordering** — observers see intervals strictly in timeline order
///    (interval 0, 1, 2, …), each exactly once, with `on_run_begin` first
///    and `on_run_end` last.  Within one interval, observers are notified
///    in registration order.
///  - **Threading** — all callbacks run on the thread that calls
///    `advance()`/`run()`, never concurrently.  The engine's parallelism
///    (`util::parallel_map` fan-out over the requests the solve cache
///    cannot answer on the calling thread) is fully joined before
///    dispatch, so an observer may freely read shared state.
///  - **Errors** — an exception thrown by an observer propagates out of
///    `advance()`/`run()` and aborts the run; the engine is then spent
///    (later intervals are never computed or dispatched).  Observers that
///    must survive sink failures (e.g. disk full) should catch their own.
///
/// Request classes: jobs whose rack class (cache scope, supply candidates,
/// TCASE limit), benchmark and QoS factor are equal ask the solve cache
/// the same questions, so each interval schedules and scans each class
/// once, and asks each distinct (class, rack setpoint) pair once; every
/// job copies its class's outcome.  The calling thread answers what the
/// cache already holds (`core::SolveCache::find`); only scans paused at an
/// unanswered candidate, and pairs not found, fan out to solve.  Values
/// are pure functions of their keys, so results are those of one scan per
/// job.  Fewer lookups do change the cache's recency order: with more
/// distinct keys than its capacity, eviction, and so the `solves` counter,
/// could differ from a per-job engine's, never the results.
///
/// `FleetModel::run` is rebuilt on top of this engine with the
/// `FleetResultAggregator` observer, so batch and streaming runs are one
/// code path and bitwise identical by construction (asserted at 1/2/4
/// threads in tests/streaming_test.cpp anyway, to pin the contract).

#include <cstddef>
#include <cstdint>
#include <fstream>
#include <iosfwd>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "tpcool/datacenter/fleet.hpp"
#include "tpcool/datacenter/placement.hpp"

namespace tpcool::datacenter {

class FleetController;  // control.hpp

/// Solve activity attributed to one interval (or to the whole run, in
/// `FleetRunSummary`).  `solves` = coupled solves actually executed, the
/// delta of `core::SolveCache::global()` misses around the interval's
/// computation; `hits` = requests served without executing a solve, where
/// the requests are each job's scanned candidates plus its solve at the
/// rack setpoint, whether or not its request class asked the cache.  Exact
/// and deterministic for any thread count *when the engine is the only
/// cache user in the process* (the normal case; concurrent engines would
/// attribute each other's solves to whichever interval was active).
struct IntervalCounters {
  std::size_t solves = 0;
  std::size_t hits = 0;
};

/// End-of-run rollup: the scalar fields of `FleetResult` without the
/// per-interval vector.
struct FleetRunSummary {
  std::size_t intervals = 0;
  double duration_s = 0.0;
  double total_it_energy_j = 0.0;
  double total_chiller_energy_j = 0.0;
  double total_facility_energy_j = 0.0;  ///< IT + chiller + distribution.
  double avg_pue = 1.0;                  ///< Energy-weighted fleet PUE.
  std::size_t qos_violations = 0;
  IntervalCounters counters;             ///< Whole-run solve/hit totals.
};

/// Per-interval metrics consumer.  See the file comment (and
/// docs/OBSERVABILITY.md) for the ordering/threading/error contract.
class FleetObserver {
 public:
  virtual ~FleetObserver() = default;

  /// Before interval 0.  `total_duration_s` is the timeline end (the last
  /// phase boundary over all streams).
  virtual void on_run_begin(const FleetConfig& config,
                            std::size_t stream_count,
                            double total_duration_s) {
    (void)config;
    (void)stream_count;
    (void)total_duration_s;
  }

  /// One finished interval, in timeline order.  `interval` is owned by the
  /// engine and dies after the last observer returns — copy what you keep.
  virtual void on_interval(const FleetInterval& interval,
                           const IntervalCounters& counters) = 0;

  /// After the last interval.
  virtual void on_run_end(const FleetRunSummary& summary) { (void)summary; }
};

/// Incremental fleet engine: identical physics, placement, and arithmetic
/// to the batch `FleetModel::run` (which now delegates here), but results
/// stream to observers interval by interval.
class StreamingFleetEngine {
 public:
  /// The engine's interval-buffer bound: at most this many
  /// `FleetInterval`s are alive inside the engine at any moment,
  /// independent of trace length.  (The current implementation computes
  /// and dispatches one interval at a time.)
  static constexpr std::size_t kMaxHeldIntervals = 1;

  /// Validates like `FleetModel` and takes the streams up front (the
  /// timeline is their phase-boundary union).  Throws PreconditionError
  /// on an empty stream set or an over-capacity interval (the latter at
  /// the offending interval during `advance`).
  StreamingFleetEngine(FleetConfig config,
                       std::vector<workload::WorkloadTrace> streams);

  /// Register an observer (non-owning; must outlive the run).  Observers
  /// are notified in registration order.  Must be called before the first
  /// `advance()`.
  void add_observer(FleetObserver& observer);

  /// Close the loop with a fleet controller (control.hpp): registers it
  /// as an observer AND queries its per-rack supply biases when computing
  /// each interval (interval i's biases come from the state after
  /// interval i−1; interval 0 runs unbiased).  At most one controller per
  /// engine; must be called before the first `advance()`.  Non-owning.
  void set_controller(FleetController& controller);

  /// Compute and dispatch the next interval.  Returns true while an
  /// interval was emitted; the call after the last interval finalizes the
  /// summary, dispatches `on_run_end`, and returns false (as does every
  /// later call).
  bool advance();

  /// Drain the timeline: `while (advance()) {}`.
  void run();

  [[nodiscard]] bool finished() const noexcept { return finished_; }
  [[nodiscard]] std::size_t intervals_emitted() const noexcept {
    return next_interval_;
  }
  /// Peak number of `FleetInterval`s simultaneously alive in the engine so
  /// far — the bounded-memory claim, asserted ≤ `kMaxHeldIntervals` by
  /// perf/'s `fleet_stream` workload and `streaming_test`.
  [[nodiscard]] std::size_t peak_held_intervals() const noexcept {
    return peak_held_intervals_;
  }
  /// Valid once `finished()` and the run completed cleanly (throws
  /// PreconditionError on an engine spent by an observer exception).
  [[nodiscard]] const FleetRunSummary& summary() const;

 private:
  FleetConfig config_;
  std::vector<workload::WorkloadTrace> streams_;
  std::vector<double> boundaries_;
  std::unique_ptr<PlacementPolicy> policy_;
  std::vector<RackLoad> loads_;
  std::vector<double> design_flow_kg_h_;
  std::vector<std::string> rack_scope_;  ///< `core::solve_scope` per rack.
  /// Scan class per rack: the lowest rack index with the same scope,
  /// supply candidates (bitwise) and TCASE limit, i.e. the same phase-1
  /// scan for the same request.
  std::vector<std::size_t> rack_class_;
  /// One scheduler per approach among the racks: no decision depends on
  /// the grid pitch, so racks of one approach share it at any pitch.  Only
  /// the serial dispatch step uses them.
  std::map<core::Approach, core::Scheduler> schedulers_;
  std::size_t capacity_ = 0;  ///< Servers over all racks.
  FleetController* controller_ = nullptr;
  std::vector<FleetObserver*> observers_;
  FleetRunSummary summary_;
  std::size_t next_interval_ = 0;
  std::size_t peak_held_intervals_ = 0;
  bool begun_ = false;
  bool finished_ = false;
  bool failed_ = false;  ///< An observer threw; the summary is partial.
};

/// In-memory aggregator: rebuilds the batch `FleetResult` from the stream.
/// This is exactly what `FleetModel::run` uses, so aggregating a streaming
/// run is bitwise the batch result.
class FleetResultAggregator final : public FleetObserver {
 public:
  void on_interval(const FleetInterval& interval,
                   const IntervalCounters& counters) override;
  void on_run_end(const FleetRunSummary& summary) override;

  /// Valid after `on_run_end`.
  [[nodiscard]] const FleetResult& result() const { return result_; }
  /// Move the result out (the aggregator is then spent).
  [[nodiscard]] FleetResult take() { return std::move(result_); }

 private:
  FleetResult result_;
};

/// JSONL file sink: one self-contained JSON object per line — a header
/// record, one record per interval, and a summary record (schema
/// `tpcool-fleet-stream-v3`, documented in docs/OBSERVABILITY.md).
/// Doubles are printed with 17 significant digits (`std::to_chars`, the
/// bytes of printf's %.17g), and no value depends on the stream's locale.
/// Each record reaches the stream in one write.  A replay
/// (`replay_fleet_jsonl`) reconstructs every digest-covered field of the
/// batch `FleetResult` bit-exactly.
class JsonlFleetSink final : public FleetObserver {
 public:
  /// Write to a caller-owned stream (must outlive the sink).
  explicit JsonlFleetSink(std::ostream& os);
  /// Open `path` for writing; throws PreconditionError when it cannot.
  explicit JsonlFleetSink(const std::string& path);

  void on_run_begin(const FleetConfig& config, std::size_t stream_count,
                    double total_duration_s) override;
  void on_interval(const FleetInterval& interval,
                   const IntervalCounters& counters) override;
  void on_run_end(const FleetRunSummary& summary) override;

 private:
  std::ofstream owned_;
  std::ostream* os_ = nullptr;
};

/// Parse a `tpcool-fleet-stream-v3` JSONL stream back into a
/// `FleetResult`.  Restores every field `fleet_digest` covers (and the
/// benchmark names); schedule decisions are not serialized and come back
/// default-constructed.  Throws PreconditionError on malformed input or a
/// schema mismatch.
[[nodiscard]] FleetResult replay_fleet_jsonl(std::istream& is);

/// Overload: read from a file path.
[[nodiscard]] FleetResult replay_fleet_jsonl(const std::string& path);

/// Periodic min/max/mean reducer: rolls the interval stream up into
/// fixed-width windows of simulated time (e.g. hourly rollups of a week),
/// the cheap "live dashboard" observer.  Means are time-weighted;
/// intervals are assigned to windows by their start time.  Memory is
/// O(completed windows), bounded by duration / window — choose the window
/// to taste for very long runs.
class FleetRollupReducer final : public FleetObserver {
 public:
  struct Rollup {
    std::size_t first_interval = 0;
    std::size_t intervals = 0;
    double start_s = 0.0;
    double duration_s = 0.0;  ///< Sum of member interval durations.
    double it_power_w_min = 0.0, it_power_w_max = 0.0, it_power_w_mean = 0.0;
    double chiller_power_w_min = 0.0, chiller_power_w_max = 0.0,
           chiller_power_w_mean = 0.0;
    double pue_min = 0.0, pue_max = 0.0, pue_mean = 0.0;
    std::size_t qos_violations = 0;
    std::size_t solves = 0;  ///< Coupled solves executed in the window.
  };

  /// `window_s` > 0 and finite: rollup width in simulated seconds.
  explicit FleetRollupReducer(double window_s);

  void on_interval(const FleetInterval& interval,
                   const IntervalCounters& counters) override;
  void on_run_end(const FleetRunSummary& summary) override;

  /// Completed windows (the final partial window is flushed at run end).
  [[nodiscard]] const std::vector<Rollup>& rollups() const noexcept {
    return rollups_;
  }

 private:
  void flush();

  double window_s_;
  bool open_ = false;
  Rollup current_;
  double weighted_it_ = 0.0, weighted_chiller_ = 0.0, weighted_pue_ = 0.0;
  std::vector<Rollup> rollups_;
};

}  // namespace tpcool::datacenter
