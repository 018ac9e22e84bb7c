#include "tpcool/core/scheduler.hpp"

#include "tpcool/util/error.hpp"

namespace tpcool::core {

Scheduler::Scheduler(ServerModel& server, const mapping::MappingPolicy& policy,
                     SelectionStrategy strategy, bool manage_cstates)
    : server_(&server),
      policy_(&policy),
      strategy_(strategy),
      manage_cstates_(manage_cstates) {}

ScheduleDecision Scheduler::schedule(const workload::BenchmarkProfile& bench,
                                     const workload::QoSRequirement& qos) const {
  for (const MemoEntry& entry : memo_) {
    if (entry.qos_factor == qos.factor && entry.bench == bench) {
      return entry.decision;
    }
  }
  ScheduleDecision decision = decide(bench, qos);
  memo_.push_back({bench, qos.factor, decision});
  return decision;
}

ScheduleDecision Scheduler::decide(const workload::BenchmarkProfile& bench,
                                   const workload::QoSRequirement& qos) const {
  ScheduleDecision decision;
  decision.idle_state =
      manage_cstates_
          ? power::deepest_cstate_within(bench.tolerable_latency_us)
          : power::CState::kPoll;

  const auto profile =
      server_->profiler().profile(bench, decision.idle_state);
  decision.point = strategy_ == SelectionStrategy::kAlgorithm1
                       ? mapping::algorithm1_select(profile, qos)
                       : mapping::packcap_select(profile, qos);

  mapping::MappingContext context;
  context.floorplan = &server_->floorplan();
  context.orientation = server_->design().evaporator.orientation;
  context.idle_state = decision.idle_state;
  context.cores_needed = decision.point.config.cores;
  decision.cores = policy_->select_cores(context);
  TPCOOL_ENSURE(static_cast<int>(decision.cores.size()) ==
                    decision.point.config.cores,
                "policy returned the wrong number of cores");
  return decision;
}

SimulationResult Scheduler::run(const workload::BenchmarkProfile& bench,
                                const workload::QoSRequirement& qos,
                                ScheduleDecision* decision_out) {
  const ScheduleDecision decision = schedule(bench, qos);
  if (decision_out != nullptr) *decision_out = decision;
  return server_->simulate(bench, decision.point.config, decision.cores,
                           decision.idle_state);
}

}  // namespace tpcool::core
