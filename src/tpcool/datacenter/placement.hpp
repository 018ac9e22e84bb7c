#pragma once
/// \file placement.hpp
/// \brief Fleet-level job placement: decide which rack runs an arriving
///        workload phase.  Mirrors the `mapping::MappingPolicy` shape one
///        level up — stateless, deterministic policies behind a small
///        registry — but places jobs on racks instead of threads on cores.

#include <cstddef>
#include <memory>
#include <string>
#include <vector>

#include "tpcool/workload/benchmark.hpp"
#include "tpcool/workload/configuration.hpp"
#include "tpcool/workload/trace.hpp"

namespace tpcool::datacenter {

/// Everything a policy may consult about one candidate rack at dispatch
/// time.  Estimates and headrooms are deterministic functions of the fleet
/// state (see FleetModel), never of timing or thread count.
struct RackLoad {
  std::size_t rack = 0;          ///< Rack index in the fleet.
  std::size_t capacity = 0;      ///< Servers (one job per server).
  std::size_t assigned = 0;      ///< Jobs placed this interval so far.
  double est_power_w = 0.0;      ///< Sum of placed jobs' power estimates.
  /// Worst-case thermal headroom [°C] observed on this rack in the
  /// previous interval (tcase limit minus hottest server tcase at the rack
  /// setpoint); `kIdleHeadroomC` when the rack was idle or on the first
  /// interval.
  double headroom_c = 0.0;

  [[nodiscard]] bool full() const noexcept { return assigned >= capacity; }
};

/// Headroom reported for a rack with no thermal history yet.
inline constexpr double kIdleHeadroomC = 1.0e3;

/// Read-only view of the whole run, handed to lookahead policies before
/// dispatch starts: the input streams and the fleet interval boundaries
/// (the streams' phase-boundary union).  Both pointees are owned by the
/// engine and outlive the policy; greedy policies ignore it entirely.
struct PlacementTimeline {
  const std::vector<workload::WorkloadTrace>* streams = nullptr;
  const std::vector<double>* boundaries = nullptr;
};

/// One job awaiting placement: a stream's phase active this interval.
struct JobRequest {
  std::size_t stream = 0;        ///< Arrival order (input stream index).
  const workload::BenchmarkProfile* bench = nullptr;
  workload::QoSRequirement qos{2.0};
  /// Dispatch-time power proxy (no thermal solve): relative job weight for
  /// load-balancing policies, not a physical prediction.
  double est_power_w = 0.0;
};

/// Abstract placement policy.  `select_rack` must return the index of a
/// non-full rack and must be deterministic (ties broken by lowest rack
/// index).
///
/// Statefulness and thread safety: `select_rack` is deliberately
/// NON-const — placement is a dispatch sequence, and implementations may
/// carry per-run state from one call to the next (round-robin advances a
/// cursor).  A policy instance is therefore single-run and single-thread:
/// FleetModel builds a fresh policy for every `run` and dispatches
/// serially in stream order, and concurrent fleets must each own their
/// own instance — sharing one across runs or threads would leak dispatch
/// history between them.  Everything about the racks themselves arrives
/// through `RackLoad`.
class PlacementPolicy {
 public:
  virtual ~PlacementPolicy() = default;

  [[nodiscard]] virtual std::string name() const = 0;

  /// Called once by the engine before interval 0, with the full run
  /// timeline.  Lookahead policies precompute here; the default is a
  /// no-op, so greedy policies (and policies driven outside an engine)
  /// never depend on it being called.
  virtual void begin_run(const PlacementTimeline& timeline) {
    (void)timeline;
  }

  /// Called by the engine before each interval's dispatch sequence, with
  /// the interval index on the fleet timeline.  Default no-op.
  virtual void begin_interval(std::size_t interval) { (void)interval; }

  /// Pick a rack for `job`.  `racks` has at least one non-full entry
  /// (FleetModel throws before asking otherwise).  Non-const: may advance
  /// per-run dispatch state (see the class doc).
  [[nodiscard]] virtual std::size_t select_rack(
      const JobRequest& job, const std::vector<RackLoad>& racks) = 0;

 protected:
  /// Shared argmin scan over non-full racks: smallest `cost(rack)` wins,
  /// ties to the lowest index.  Throws PreconditionError when every rack
  /// is full.
  template <typename Cost>
  static std::size_t argmin_open_rack(const std::vector<RackLoad>& racks,
                                      Cost&& cost) {
    std::size_t best = racks.size();
    double best_cost = 0.0;
    for (const RackLoad& rack : racks) {
      if (rack.full()) continue;
      const double c = cost(rack);
      if (best == racks.size() || c < best_cost) {
        best = rack.rack;
        best_cost = c;
      }
    }
    require_open(best != racks.size());
    return best;
  }

  static void require_open(bool found);
};

/// Cycle through the racks in index order, skipping full ones.  The cursor
/// advances once per placed job across the whole run, so successive jobs
/// land on successive racks.
class RoundRobinPlacement final : public PlacementPolicy {
 public:
  [[nodiscard]] std::string name() const override { return "round-robin"; }
  [[nodiscard]] std::size_t select_rack(
      const JobRequest& job, const std::vector<RackLoad>& racks) override;

 private:
  std::size_t cursor_ = 0;  ///< Per-run dispatch state (see base doc).
};

/// Place on the rack with the lowest accumulated estimated power this
/// interval (a classic least-loaded dispatcher on the power proxy).
class LeastPowerPlacement final : public PlacementPolicy {
 public:
  [[nodiscard]] std::string name() const override { return "least-power"; }
  [[nodiscard]] std::size_t select_rack(
      const JobRequest& job, const std::vector<RackLoad>& racks) override;
};

/// Place on the rack with the most thermal headroom left over from the
/// previous interval; ties fall back to fewest assigned jobs, then lowest
/// index.  The order is truly lexicographic: ANY headroom difference
/// outranks the assignment count (no weighted-sum encoding, which would
/// invert the priority once headroom differences shrink below the
/// weight's resolution).
class ThermalHeadroomPlacement final : public PlacementPolicy {
 public:
  [[nodiscard]] std::string name() const override {
    return "thermal-headroom";
  }
  [[nodiscard]] std::size_t select_rack(
      const JobRequest& job, const std::vector<RackLoad>& racks) override;
};

/// MPC-style lookahead placement: scan the next W intervals of the known
/// workload timeline (`begin_run` precomputes every stream's per-interval
/// power estimate) and place each job on the rack minimizing the
/// discounted projected load over the window, scaled by a thermal-deficit
/// penalty on racks whose previous-interval headroom went negative — so
/// hot jobs steer away from racks that §V's candidate scan already proved
/// thermally inadequate for them.  Within one interval the policy
/// accumulates its own placements' future load, so the W-window cost is
/// joint across the interval's dispatch sequence, not per-job myopic.
///
/// Registry name: `"windowed"` (W = kWindow).
class WindowedPlacement final : public PlacementPolicy {
 public:
  /// Lookahead horizon W, in intervals (this one included).
  static constexpr std::size_t kWindow = 4;
  /// Geometric discount per lookahead interval.
  static constexpr double kDiscount = 0.5;
  /// Cost multiplier per °C of thermal deficit (negative headroom).
  static constexpr double kPenaltyPerDegC = 1.0;

  [[nodiscard]] std::string name() const override { return "windowed"; }
  void begin_run(const PlacementTimeline& timeline) override;
  void begin_interval(std::size_t interval) override;
  [[nodiscard]] std::size_t select_rack(
      const JobRequest& job, const std::vector<RackLoad>& racks) override;

 private:
  std::size_t interval_ = 0;    ///< Current interval (begin_interval).
  /// Per-stream estimated power per interval, 0 when inactive
  /// ([stream][interval]; empty until begin_run).
  std::vector<std::vector<double>> stream_power_;
  /// Future load this interval's own placements already committed
  /// ([rack][lookahead w in 1..kWindow-1]; reset each begin_interval).
  std::vector<std::vector<double>> projected_;
};

/// Registry (the `mapping::` policy-registry shape): the policy names the
/// fleet config accepts; `examples/datacenter_fleet` runs each of them.
[[nodiscard]] const std::vector<std::string>& placement_policy_names();

/// Build a policy by registry name; throws PreconditionError when unknown.
[[nodiscard]] std::unique_ptr<PlacementPolicy> make_placement_policy(
    const std::string& name);

/// The dispatch-time power proxy used for `JobRequest::est_power_w`: the
/// benchmark's full-load switching weight discounted by QoS slack.  Cheap,
/// deterministic, and monotone in how hot the job will run — sufficient
/// for load balancing; the real power comes out of the coupled solve.
[[nodiscard]] double job_power_estimate(const workload::BenchmarkProfile& bench,
                                        const workload::QoSRequirement& qos);

}  // namespace tpcool::datacenter
