#include "tpcool/util/thread_pool.hpp"

#include <algorithm>
#include <memory>
#include <string>

#include "tpcool/util/error.hpp"
#include "tpcool/util/logging.hpp"
#include "tpcool/util/telemetry.hpp"

namespace tpcool::util {

namespace {

/// Cached-handle accessors: cells live for the process, so resolving the
/// name once per process (not per job) keeps the enabled path cheap.
TelemetryCounter& pool_jobs_counter() {
  static TelemetryCounter& cell = Telemetry::instance().counter("pool.jobs");
  return cell;
}
TelemetryCounter& pool_chunks_counter() {
  static TelemetryCounter& cell = Telemetry::instance().counter("pool.chunks");
  return cell;
}
TelemetryHistogram& pool_chunks_per_job_histogram() {
  static TelemetryHistogram& cell =
      Telemetry::instance().histogram("pool.chunks_per_job");
  return cell;
}
TelemetryGauge& pool_queue_depth_gauge() {
  static TelemetryGauge& cell =
      Telemetry::instance().gauge("pool.queue_depth");
  return cell;
}

/// Busy-time counter for a drain participant (0 = the parallel_for
/// caller).  Looked up per drain pass, not per chunk.
TelemetryCounter& pool_busy_counter(std::size_t worker_index) {
  if (worker_index == 0) {
    static TelemetryCounter& cell =
        Telemetry::instance().counter("pool.caller.busy_ms");
    return cell;
  }
  return Telemetry::instance().counter("pool.worker" +
                                       std::to_string(worker_index) +
                                       ".busy_ms");
}

}  // namespace

std::size_t ThreadPool::default_thread_count() {
  const unsigned hw = std::thread::hardware_concurrency();
  return env_positive_integer("TPCOOL_NUM_THREADS", hw == 0 ? 1 : hw);
}

ThreadPool::ThreadPool(std::size_t threads) {
  if (threads == 0) threads = default_thread_count();
  workers_.reserve(threads - 1);
  for (std::size_t i = 0; i + 1 < threads; ++i) {
    workers_.emplace_back([this, i](const std::stop_token& stop) {
      worker_loop(stop, i + 1);
    });
  }
}

ThreadPool::~ThreadPool() {
  {
    // Hold the mutex while requesting stop: otherwise a worker that just
    // evaluated its wait predicate (false) but has not yet blocked would
    // miss the notification and the jthread join below would deadlock.
    std::lock_guard lock(mutex_);
    for (auto& w : workers_) w.request_stop();
  }
  work_ready_.notify_all();
  // jthread joins in its destructor.
}

void ThreadPool::worker_loop(const std::stop_token& stop,
                             std::size_t worker_index) {
  std::unique_lock lock(mutex_);
  std::size_t seen_generation = 0;
  while (true) {
    work_ready_.wait(lock, [&] {
      return stop.stop_requested() ||
             (job_active_ && job_.generation != seen_generation);
    });
    if (stop.stop_requested()) return;
    seen_generation = job_.generation;
    drain_job(lock, worker_index);
  }
}

void ThreadPool::drain_job(std::unique_lock<std::mutex>& lock,
                           std::size_t worker_index) {
  // Resolve telemetry handles once per drain pass, never per chunk; the
  // whole disabled cost is this one gate.
  const bool traced = telemetry_enabled();
  TelemetryCounter* busy = traced ? &pool_busy_counter(worker_index) : nullptr;
  TelemetryCounter* chunks = traced ? &pool_chunks_counter() : nullptr;
  while (job_.next_chunk < job_.chunk_count) {
    const std::size_t chunk = job_.next_chunk++;
    const std::size_t lo = job_.begin + chunk * job_.grain;
    const std::size_t hi = std::min(lo + job_.grain, job_.end);
    const auto* body = job_.body;
    lock.unlock();
    if (traced) {
      const std::int64_t t0 = Telemetry::now_ns();
      (*body)(lo, hi);
      busy->add(static_cast<double>(Telemetry::now_ns() - t0) / 1e6);
      chunks->add(1.0);
    } else {
      (*body)(lo, hi);
    }
    lock.lock();
    if (++job_.chunks_done == job_.chunk_count) job_done_.notify_all();
  }
}

void ThreadPool::parallel_for(
    std::size_t begin, std::size_t end, std::size_t grain,
    const std::function<void(std::size_t, std::size_t)>& body) {
  TPCOOL_REQUIRE(begin <= end && grain > 0, "bad parallel_for range");
  if (begin == end) return;
  const std::size_t count = end - begin;
  const std::size_t chunk_count = (count + grain - 1) / grain;
  if (workers_.empty() || count <= grain) {
    // Serial path: keep the exact chunk boundaries of the threaded path so
    // chunk-indexed bodies (parallel_map) behave identically.
    if (telemetry_enabled()) {
      const std::int64_t t0 = Telemetry::now_ns();
      for (std::size_t lo = begin; lo < end; lo += grain) {
        body(lo, std::min(lo + grain, end));
      }
      pool_busy_counter(0).add(
          static_cast<double>(Telemetry::now_ns() - t0) / 1e6);
      pool_jobs_counter().add(1.0);
      pool_chunks_counter().add(static_cast<double>(chunk_count));
      pool_chunks_per_job_histogram().record(
          static_cast<double>(chunk_count));
      return;
    }
    for (std::size_t lo = begin; lo < end; lo += grain) {
      body(lo, std::min(lo + grain, end));
    }
    return;
  }

  std::unique_lock lock(mutex_);
  if (job_active_) {
    // A job is already in flight: this is a nested parallel_map (e.g.
    // RackCoordinator::plan inside a fleet engine's fan-out). Run it on the
    // serial chunked path instead of corrupting the active job.
    lock.unlock();
    for (std::size_t lo = begin; lo < end; lo += grain) {
      body(lo, std::min(lo + grain, end));
    }
    return;
  }
  job_.body = &body;
  job_.begin = begin;
  job_.end = end;
  job_.grain = grain;
  job_.next_chunk = 0;
  job_.chunk_count = chunk_count;
  job_.chunks_done = 0;
  ++job_.generation;
  job_active_ = true;
  const bool traced = telemetry_enabled();
  if (traced) {
    pool_jobs_counter().add(1.0);
    pool_chunks_per_job_histogram().record(static_cast<double>(chunk_count));
    pool_queue_depth_gauge().set(static_cast<double>(chunk_count));
  }
  work_ready_.notify_all();

  drain_job(lock, 0);  // the caller works too
  job_done_.wait(lock, [&] { return job_.chunks_done == job_.chunk_count; });
  job_active_ = false;
  if (traced) pool_queue_depth_gauge().set(0.0);
}

namespace {
std::unique_ptr<ThreadPool>& global_pool_slot() {
  static std::unique_ptr<ThreadPool> pool;
  return pool;
}
std::mutex& global_pool_mutex() {
  static std::mutex m;
  return m;
}
}  // namespace

ThreadPool& ThreadPool::global() {
  std::lock_guard lock(global_pool_mutex());
  auto& slot = global_pool_slot();
  if (!slot) slot = std::make_unique<ThreadPool>();
  return *slot;
}

void ThreadPool::set_global_thread_count(std::size_t threads) {
  std::lock_guard lock(global_pool_mutex());
  global_pool_slot() = std::make_unique<ThreadPool>(threads);
}

}  // namespace tpcool::util
