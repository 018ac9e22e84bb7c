#pragma once
/// \file scheduler.hpp
/// \brief Algorithm 1 end to end: QoS-aware configuration selection,
///        C-state choice, and thermal-aware thread mapping.  A decision
///        reads offline profiles and the floorplan only; no thermal solve
///        is involved, so a Scheduler owns no server.

#include <memory>
#include <vector>

#include "tpcool/core/pipelines.hpp"
#include "tpcool/floorplan/floorplan.hpp"
#include "tpcool/mapping/config_select.hpp"
#include "tpcool/mapping/policy.hpp"
#include "tpcool/power/package_power.hpp"
#include "tpcool/workload/profiler.hpp"

namespace tpcool::core {

/// Outcome of the scheduling pipeline for one application.
struct ScheduleDecision {
  workload::ConfigPoint point;      ///< Selected configuration + profile row.
  std::vector<int> cores;           ///< Physical core placement.
  power::CState idle_state = power::CState::kPoll;
};

/// The decisions of one approach.
///
/// Everything a decision depends on besides the benchmark and the QoS is
/// fixed by the approach: the Xeon floorplan and power model, the mapping
/// policy, the evaporator orientation of `server_config_for(approach)`, the
/// selection rule (Algorithm 1 for the proposal, [27]'s pack-and-cap for
/// the state of the art) and whether idle cores get a C-state (the
/// proposal only).  So Algorithm 1 runs as the paper runs it: the
/// configuration space is profiled once per (benchmark profile, QoS
/// factor) and later calls pick from a memo.  The memo keys on the full
/// profile value, not its name, and grows by one entry per distinct pair.
/// A Scheduler is not thread-safe: the fleet engines and the experiment
/// runners decide serially, before they fan the solves out.  Like
/// ServerModel it is neither copyable nor movable, because its profiler
/// points into it.
class Scheduler {
 public:
  explicit Scheduler(Approach approach);

  Scheduler(const Scheduler&) = delete;
  Scheduler& operator=(const Scheduler&) = delete;
  Scheduler(Scheduler&&) = delete;
  Scheduler& operator=(Scheduler&&) = delete;

  /// Decide (configuration, C-state, placement) for a benchmark under a QoS
  /// requirement.  When C-state management is off (state-of-the-art
  /// approaches) idle cores stay in POLL.  Repeated calls return the
  /// memoized decision (see the class comment).
  [[nodiscard]] ScheduleDecision schedule(
      const workload::BenchmarkProfile& bench,
      const workload::QoSRequirement& qos) const;

 private:
  /// Profile the configuration space and run the selection and mapping.
  [[nodiscard]] ScheduleDecision decide(
      const workload::BenchmarkProfile& bench,
      const workload::QoSRequirement& qos) const;

  struct MemoEntry {
    workload::BenchmarkProfile bench;
    double qos_factor = 1.0;
    ScheduleDecision decision;
  };

  Approach approach_;
  floorplan::Floorplan floorplan_;
  power::PackagePowerModel power_model_;
  workload::Profiler profiler_;
  std::unique_ptr<mapping::MappingPolicy> policy_;
  thermosyphon::Orientation orientation_;
  /// Decisions made so far, searched linearly (the fleet asks for at most
  /// 13 benchmarks x 3 QoS tiers per scheduler).
  mutable std::vector<MemoEntry> memo_;
};

}  // namespace tpcool::core
