#pragma once
/// \file thread_pool.hpp
/// \brief Minimal std::jthread worker pool with a parallel-for over task
///        indices, the engine under util::parallel_map.
///
/// Design constraints (see README "Solver architecture"):
///  - No new dependencies: std::jthread + condition_variable only.
///  - Determinism: every task is one index and runs once, on whichever
///    thread claims it, so disjoint-write bodies are bit-identical for 1 vs
///    N threads.  One solve runs on one thread; parallelism is across
///    solves.
///  - The pool runs inline when the job has one task, the pool has a
///    single thread, or a job is already in flight (a nested call).
///
/// The default pool size comes from the TPCOOL_NUM_THREADS environment
/// variable (if set to an integer in [1, kMaxThreads]) or
/// std::thread::hardware_concurrency().
/// The benchmark driver (perf/driver.cpp) and tests pin the count with
/// `set_global_thread_count()` before the first solve.
///
/// Telemetry (docs/TRACING.md): with tracing enabled the pool maintains
/// `pool.jobs` / `pool.chunks` counters (a chunk is one task), a
/// `pool.chunks_per_job` histogram, and per-worker busy-time counters
/// (`pool.caller.busy_ms`, `pool.worker<i>.busy_ms`). Disabled tracing
/// costs one atomic load per parallel_for / drain pass.

#include <condition_variable>
#include <cstddef>
#include <functional>
#include <mutex>
#include <thread>
#include <vector>

namespace tpcool::util {

/// Read the environment variable `name` as an integer in [1, `max`] written
/// in decimal digits and nothing else.  Returns `fallback` when the
/// variable is unset, and also when it holds anything else ("4x", "0", "",
/// "1e3", a value above `max`), after a warning on stderr the first time
/// `name` is rejected.
[[nodiscard]] std::size_t env_positive_integer(const char* name,
                                               std::size_t fallback,
                                               std::size_t max);

/// Fixed-size worker pool executing one task per index.
///
/// A pool of `threads` owns `threads - 1` workers; the caller of
/// `parallel_for()` participates as the remaining worker, so a pool of one
/// thread runs everything inline with zero synchronization.
class ThreadPool {
 public:
  /// Largest TPCOOL_NUM_THREADS accepted; larger values keep the default.
  static constexpr std::size_t kMaxThreads = 1024;

  /// Spawn a pool with `threads` total workers (including the caller of
  /// parallel_for). `threads == 0` selects the default (env/hardware).
  explicit ThreadPool(std::size_t threads = 0);
  ~ThreadPool();

  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  /// Run `body(i)` once for every i in [0, count), each index claimed by
  /// one thread. Blocks until every task has run.
  void parallel_for(std::size_t count,
                    const std::function<void(std::size_t)>& body);

  /// Process-wide pool behind parallel_map. Lazily constructed.
  [[nodiscard]] static ThreadPool& global();

  /// Resize the global pool (joins the old workers). Used by the benchmark
  /// driver and by tests; `threads == 0` restores the default.
  static void set_global_thread_count(std::size_t threads);

  /// Thread count the default-constructed pool would use
  /// (TPCOOL_NUM_THREADS env override up to kMaxThreads, else hardware
  /// concurrency).
  [[nodiscard]] static std::size_t default_thread_count();

 private:
  struct Job {
    const std::function<void(std::size_t)>* body = nullptr;
    std::size_t next_task = 0;  // next task index to claim
    std::size_t task_count = 0;
    std::size_t tasks_done = 0;
    std::size_t generation = 0;
  };

  void worker_loop(const std::stop_token& stop, std::size_t worker_index);
  /// Claim and run tasks of the current job until none remain. Returns
  /// after the last task this thread ran is recorded. `worker_index` 0 is
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
