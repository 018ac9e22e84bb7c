#include "tpcool/core/scheduler.hpp"

#include "tpcool/floorplan/xeon_e5.hpp"
#include "tpcool/mapping/balancing.hpp"
#include "tpcool/mapping/inlet_first.hpp"
#include "tpcool/mapping/proposed.hpp"
#include "tpcool/util/error.hpp"

namespace tpcool::core {

namespace {

std::unique_ptr<mapping::MappingPolicy> policy_for(Approach approach) {
  switch (approach) {
    case Approach::kProposed:
      return std::make_unique<mapping::ProposedPolicy>();
    case Approach::kSoaBalancing:
      return std::make_unique<mapping::BalancingPolicy>();
    case Approach::kSoaInletFirst:
      return std::make_unique<mapping::InletFirstPolicy>();
  }
  TPCOOL_REQUIRE(false, "unknown approach");
  return nullptr;
}

}  // namespace

Scheduler::Scheduler(Approach approach)
    : approach_(approach),
      floorplan_(floorplan::make_xeon_e5_floorplan(
          server_config_for(approach).stack.geometry)),
      power_model_(floorplan_),
      profiler_(power_model_),
      policy_(policy_for(approach)),
      orientation_(server_config_for(approach).design.evaporator.orientation) {}

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
  const bool proposed = approach_ == Approach::kProposed;
  ScheduleDecision decision;
  decision.idle_state =
      proposed ? power::deepest_cstate_within(bench.tolerable_latency_us)
               : power::CState::kPoll;

  const auto profile = profiler_.profile(bench, decision.idle_state);
  decision.point = proposed ? mapping::algorithm1_select(profile, qos)
                            : mapping::packcap_select(profile, qos);

  mapping::MappingContext context;
  context.floorplan = &floorplan_;
  context.orientation = orientation_;
  context.idle_state = decision.idle_state;
  context.cores_needed = decision.point.config.cores;
  decision.cores = policy_->select_cores(context);
  TPCOOL_ENSURE(static_cast<int>(decision.cores.size()) ==
                    decision.point.config.cores,
                "policy returned the wrong number of cores");
  return decision;
}

}  // namespace tpcool::core
