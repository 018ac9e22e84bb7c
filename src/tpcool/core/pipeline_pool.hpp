#pragma once
/// \file pipeline_pool.hpp
/// \brief Pipeline source: `cached_solve` (see parallel.hpp) checks one out
///        only when a key misses, the transient engine once per segment it
///        integrates, and both park it again afterwards, so a run constructs
///        one pipeline per concurrent checkout instead of one per checkout.
///
/// Soundness: pipeline servers start every solve cold (`server_config_for`
/// sets `reuse_thermal_state = false`) and every user sets the operating
/// point it solves at, so a reused pipeline computes the same bits as a
/// freshly constructed one.

#include <cstddef>
#include <memory>
#include <mutex>
#include <string>
#include <unordered_map>
#include <vector>

#include "tpcool/core/pipelines.hpp"

namespace tpcool::core {

/// Thread-safe pool of `ApproachPipeline`s keyed by (approach, cell size).
class PipelinePool {
 public:
  /// Lifetime counters (never reset by clear(): the construction savings a
  /// bench reports span cache clears).
  struct Stats {
    std::size_t constructions = 0;  ///< Pipelines built fresh on checkout.
    std::size_t reuses = 0;         ///< Checkouts served from the pool.
    std::size_t idle = 0;           ///< Pipelines parked in the pool now.
  };

  /// RAII checkout: holds a pipeline and returns it to the pool on
  /// destruction.
  class Lease {
   public:
    Lease(const Lease&) = delete;
    Lease& operator=(const Lease&) = delete;
    ~Lease();

    [[nodiscard]] ApproachPipeline& operator*() const { return *pipeline_; }
    [[nodiscard]] ApproachPipeline* operator->() const {
      return pipeline_.get();
    }

   private:
    friend class PipelinePool;
    Lease(PipelinePool& pool, std::string key,
          std::unique_ptr<ApproachPipeline> pipeline)
        : pool_(pool), key_(std::move(key)), pipeline_(std::move(pipeline)) {}

    PipelinePool& pool_;
    std::string key_;
    std::unique_ptr<ApproachPipeline> pipeline_;
  };

  PipelinePool() = default;
  PipelinePool(const PipelinePool&) = delete;
  PipelinePool& operator=(const PipelinePool&) = delete;

  /// Check out a pipeline for (approach, cell_size_m): reused if one is
  /// parked, constructed otherwise.
  [[nodiscard]] Lease checkout(Approach approach, double cell_size_m);

  [[nodiscard]] Stats stats() const;

  /// Drop the idle pipelines (counters are kept).  Frees the ~MBs a wide
  /// sweep parked; the next checkout constructs again.
  void clear();

  /// Process-wide pool behind `cached_solve` and the transient engine's
  /// segments.
  [[nodiscard]] static PipelinePool& global();

 private:
  mutable std::mutex mutex_;
  Stats stats_;
  std::unordered_map<std::string,
                     std::vector<std::unique_ptr<ApproachPipeline>>>
      idle_;
};

}  // namespace tpcool::core
