#include "tpcool/core/pipeline_pool.hpp"

#include <utility>

#include "tpcool/core/parallel.hpp"
#include "tpcool/util/telemetry.hpp"

namespace tpcool::core {

namespace {

util::TelemetryCounter& pipeline_constructions_counter() {
  static util::TelemetryCounter& cell =
      util::Telemetry::instance().counter("pipeline.constructions");
  return cell;
}
util::TelemetryCounter& pipeline_reuses_counter() {
  static util::TelemetryCounter& cell =
      util::Telemetry::instance().counter("pipeline.reuses");
  return cell;
}

}  // namespace

PipelinePool::Lease::~Lease() {
  std::lock_guard lock(pool_.mutex_);
  pool_.idle_[key_].push_back(std::move(server_));
}

PipelinePool::Lease PipelinePool::checkout(Approach approach,
                                           double cell_size_m) {
  std::string key = solve_scope(approach, cell_size_m);
  std::unique_ptr<ServerModel> server;
  {
    std::lock_guard lock(mutex_);
    auto& parked = idle_[key];
    if (!parked.empty()) {
      server = std::move(parked.back());
      parked.pop_back();
      ++stats_.reuses;
      pipeline_reuses_counter().add(1.0);
    } else {
      ++stats_.constructions;
      pipeline_constructions_counter().add(1.0);
    }
  }
  // Construct outside the lock: ~0.2 ms each, and concurrent tasks must
  // not serialize on it.
  if (server == nullptr) {
    util::TraceSpan span("pipeline.construct");
    server =
        std::make_unique<ServerModel>(server_config_for(approach, cell_size_m));
  }
  return Lease(*this, std::move(key), std::move(server));
}

PipelinePool::Stats PipelinePool::stats() const {
  std::lock_guard lock(mutex_);
  Stats stats = stats_;
  for (const auto& [key, parked] : idle_) stats.idle += parked.size();
  return stats;
}

void PipelinePool::clear() {
  std::lock_guard lock(mutex_);
  idle_.clear();
}

PipelinePool& PipelinePool::global() {
  static PipelinePool pool;
  return pool;
}

}  // namespace tpcool::core
