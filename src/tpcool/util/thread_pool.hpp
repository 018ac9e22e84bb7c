#pragma once
/// \file thread_pool.hpp
/// \brief Minimal std::jthread worker pool with a deterministic
///        parallel-for, the engine under util::parallel_map.
///
/// Design constraints (see README "Solver architecture"):
///  - No new dependencies: std::jthread + condition_variable only.
///  - Determinism: chunk boundaries depend only on the range and the
///    grain, so disjoint-write bodies are bit-identical for 1 vs N threads.
///    One solve runs on one thread; parallelism is across solves.
///  - The pool runs inline when the range is one grain or the pool has a
///    single thread.
///
/// The default pool size comes from the TPCOOL_NUM_THREADS environment
/// variable (if set and positive) or std::thread::hardware_concurrency().
/// The benchmark driver (perf/driver.cpp) and tests pin the count with
/// `set_global_thread_count()` before the first solve.
///
/// Telemetry (docs/TRACING.md): with tracing enabled the pool maintains
/// `pool.jobs` / `pool.chunks` counters, a `pool.chunks_per_job`
/// histogram, a `pool.queue_depth` gauge (chunks outstanding when a job is
/// posted, 0 between jobs), and per-worker busy-time counters
/// (`pool.caller.busy_ms`, `pool.worker<i>.busy_ms`). Disabled tracing
/// costs one atomic load per parallel_for / drain pass.

#include <condition_variable>
#include <cstddef>
#include <functional>
#include <mutex>
#include <thread>
#include <vector>

namespace tpcool::util {

/// Fixed-size worker pool executing chunked index-range loops.
///
/// The pool owns `thread_count() - 1` workers; the caller of
/// `parallel_for()` participates as the remaining worker, so a pool of one
/// thread runs everything inline with zero synchronization.
class ThreadPool {
 public:
  /// Spawn a pool with `threads` total workers (including the caller of
  /// parallel_for). `threads == 0` selects the default (env/hardware).
  explicit ThreadPool(std::size_t threads = 0);
  ~ThreadPool();

  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  [[nodiscard]] std::size_t thread_count() const noexcept {
    return workers_.size() + 1;
  }

  /// Run `body(begin, end)` over [begin, end) split into chunks of at most
  /// `grain` indices. Blocks until every chunk has run. Chunk boundaries
  /// depend only on (begin, end, grain) — not on the thread count — so
  /// disjoint-write bodies are deterministic.
  void parallel_for(std::size_t begin, std::size_t end, std::size_t grain,
                    const std::function<void(std::size_t, std::size_t)>& body);

  /// Process-wide pool behind parallel_map. Lazily constructed.
  [[nodiscard]] static ThreadPool& global();

  /// Resize the global pool (joins the old workers). Used by the benchmark
  /// driver and by tests; `threads == 0` restores the default.
  static void set_global_thread_count(std::size_t threads);

  /// Thread count the default-constructed pool would use
  /// (TPCOOL_NUM_THREADS env override, else hardware concurrency).
  [[nodiscard]] static std::size_t default_thread_count();

 private:
  struct Job {
    const std::function<void(std::size_t, std::size_t)>* body = nullptr;
    std::size_t begin = 0;
    std::size_t end = 0;
    std::size_t grain = 1;
    std::size_t next_chunk = 0;   // next chunk index to claim
    std::size_t chunk_count = 0;
    std::size_t chunks_done = 0;
    std::size_t generation = 0;
  };

  void worker_loop(const std::stop_token& stop, std::size_t worker_index);
  /// Claim and run chunks of the current job until none remain. Returns
  /// after the last chunk this thread ran is recorded. `worker_index` 0 is
  /// the parallel_for caller, 1..N the pool workers; it selects the
  /// telemetry busy-time counter (`pool.caller.busy_ms` /
  /// `pool.worker<i>.busy_ms`) and is unused while telemetry is disabled.
  void drain_job(std::unique_lock<std::mutex>& lock, std::size_t worker_index);

  std::mutex mutex_;
  std::condition_variable work_ready_;
  std::condition_variable job_done_;
  Job job_;
  bool job_active_ = false;
  std::vector<std::jthread> workers_;
};

}  // namespace tpcool::util
