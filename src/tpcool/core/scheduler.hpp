#pragma once
/// \file scheduler.hpp
/// \brief Algorithm 1 end to end: QoS-aware configuration selection,
///        C-state choice, and thermal-aware thread mapping.

#include <memory>
#include <vector>

#include "tpcool/core/server.hpp"
#include "tpcool/mapping/config_select.hpp"
#include "tpcool/mapping/policy.hpp"

namespace tpcool::core {

/// Outcome of the scheduling pipeline for one application.
struct ScheduleDecision {
  workload::ConfigPoint point;      ///< Selected configuration + profile row.
  std::vector<int> cores;           ///< Physical core placement.
  power::CState idle_state = power::CState::kPoll;
};

/// How the configuration is selected.
enum class SelectionStrategy {
  kAlgorithm1,  ///< Paper: minimum power meeting the QoS.
  kPackAndCap,  ///< Baseline [27]: thread packing under a power cap.
};

/// Scheduler bound to a server and a mapping policy. The policy and server
/// must outlive the scheduler.
///
/// Everything a decision depends on besides the benchmark and the QoS is
/// fixed per scheduler (the server's floorplan, power model and evaporator
/// orientation, the policy, the strategy, the C-state flag), so Algorithm 1
/// runs as the paper runs it: the configuration space is profiled once per
/// (benchmark profile, QoS factor) and later calls pick from a memo.  The
/// memo keys on the full profile value, not its name, and grows by one
/// entry per distinct pair.  Like ServerModel, a Scheduler is not
/// thread-safe: the fleet engines and the experiment runners decide
/// serially, before they fan the solves out.
class Scheduler {
 public:
  Scheduler(ServerModel& server, const mapping::MappingPolicy& policy,
            SelectionStrategy strategy, bool manage_cstates);

  /// Decide (configuration, C-state, placement) for a benchmark under a QoS
  /// requirement.  When C-state management is off (state-of-the-art
  /// pipelines) idle cores stay in POLL.  Repeated calls return the
  /// memoized decision (see the class comment).
  [[nodiscard]] ScheduleDecision schedule(
      const workload::BenchmarkProfile& bench,
      const workload::QoSRequirement& qos) const;

  /// Schedule and run the coupled thermal simulation.
  [[nodiscard]] SimulationResult run(const workload::BenchmarkProfile& bench,
                                     const workload::QoSRequirement& qos,
                                     ScheduleDecision* decision_out = nullptr);

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

  ServerModel* server_;
  const mapping::MappingPolicy* policy_;
  SelectionStrategy strategy_;
  bool manage_cstates_;
  /// Decisions made so far, searched linearly (the fleet asks for at most
  /// 13 benchmarks x 3 QoS tiers per scheduler).
  mutable std::vector<MemoEntry> memo_;
};

}  // namespace tpcool::core
