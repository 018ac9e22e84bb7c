#pragma once
/// \file pipeline_pool.hpp
/// \brief Solver servers on loan: `cached_solve` (see parallel.hpp) checks
///        a `ServerModel` out only when a key misses, the transient engine
///        once per segment it integrates, and both park it again
///        afterwards, so a run constructs one server per concurrent
///        checkout instead of one per checkout.
///
/// Soundness: the pool builds its servers from `server_config_for`, which
/// makes every solve start cold (`reuse_thermal_state = false`), and every
/// user sets the operating point it solves at, so a reused server computes
/// the same bits as a freshly constructed one.

#include <cstddef>
#include <memory>
#include <mutex>
#include <string>
#include <unordered_map>
#include <vector>

#include "tpcool/core/pipelines.hpp"

namespace tpcool::core {

/// Thread-safe pool of `server_config_for` servers keyed by (approach, cell
/// size).
class PipelinePool {
 public:
  /// Lifetime counters (never reset by clear(): the construction savings a
  /// bench reports span cache clears).
  struct Stats {
    std::size_t constructions = 0;  ///< Servers built fresh on checkout.
    std::size_t reuses = 0;         ///< Checkouts served from the pool.
    std::size_t idle = 0;           ///< Servers parked in the pool now.
  };

  /// RAII checkout: holds a server and returns it to the pool on
  /// destruction.
  class Lease {
   public:
    Lease(const Lease&) = delete;
    Lease& operator=(const Lease&) = delete;
    ~Lease();

    [[nodiscard]] ServerModel& operator*() const { return *server_; }
    [[nodiscard]] ServerModel* operator->() const { return server_.get(); }

   private:
    friend class PipelinePool;
    Lease(PipelinePool& pool, std::string key,
          std::unique_ptr<ServerModel> server)
        : pool_(pool), key_(std::move(key)), server_(std::move(server)) {}

    PipelinePool& pool_;
    std::string key_;
    std::unique_ptr<ServerModel> server_;
  };

  PipelinePool() = default;
  PipelinePool(const PipelinePool&) = delete;
  PipelinePool& operator=(const PipelinePool&) = delete;

  /// Check out a `server_config_for(approach, cell_size_m)` server: reused
  /// if one is parked, constructed otherwise.
  [[nodiscard]] Lease checkout(Approach approach, double cell_size_m);

  [[nodiscard]] Stats stats() const;

  /// Drop the idle servers (counters are kept).  Frees the ~MBs a wide
  /// sweep parked; the next checkout constructs again.
  void clear();

  /// Process-wide pool behind `cached_solve` and the transient engine's
  /// segments.
  [[nodiscard]] static PipelinePool& global();

 private:
  mutable std::mutex mutex_;
  Stats stats_;
  std::unordered_map<std::string, std::vector<std::unique_ptr<ServerModel>>>
      idle_;
};

}  // namespace tpcool::core
