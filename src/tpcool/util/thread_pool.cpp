#include "tpcool/util/thread_pool.hpp"

#include <charconv>
#include <cstdlib>
#include <iostream>
#include <memory>
#include <set>
#include <string>
#include <string_view>

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

/// Busy-time counter for a drain participant (0 = the parallel_for
/// caller).  Looked up per drain pass, not per task.
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

std::size_t env_positive_integer(const char* name, std::size_t fallback,
                                 std::size_t max) {
  const char* env = std::getenv(name);
  if (env == nullptr) return fallback;
  const std::string_view text(env);
  std::size_t value = 0;
  const auto [end, error] =
      std::from_chars(text.data(), text.data() + text.size(), value);
  if (error == std::errc() && end == text.data() + text.size() &&
      value >= 1 && value <= max) {
    return value;
  }
  static std::mutex mutex;
  static std::set<std::string> warned;
  std::lock_guard lock(mutex);
  if (warned.emplace(name).second) {
    std::cerr << "tpcool: ignoring " << name << "=" << env
              << " (want an integer from 1 to " << max << ")\n";
  }
  return fallback;
}

std::size_t ThreadPool::default_thread_count() {
  const unsigned hw = std::thread::hardware_concurrency();
  return env_positive_integer("TPCOOL_NUM_THREADS", hw == 0 ? 1 : hw,
                              kMaxThreads);
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
  // Resolve telemetry handles once per drain pass, never per task; the
  // whole disabled cost is this one gate.
  const bool traced = telemetry_enabled();
  TelemetryCounter* busy = traced ? &pool_busy_counter(worker_index) : nullptr;
  TelemetryCounter* chunks = traced ? &pool_chunks_counter() : nullptr;
  while (job_.next_task < job_.task_count) {
    const std::size_t task = job_.next_task++;
    const auto* body = job_.body;
    lock.unlock();
    if (traced) {
      const std::int64_t t0 = Telemetry::now_ns();
      (*body)(task);
      busy->add(static_cast<double>(Telemetry::now_ns() - t0) / 1e6);
      chunks->add(1.0);
    } else {
      (*body)(task);
    }
    lock.lock();
    if (++job_.tasks_done == job_.task_count) job_done_.notify_all();
  }
}

void ThreadPool::parallel_for(std::size_t count,
                              const std::function<void(std::size_t)>& body) {
  if (count == 0) return;
  const auto run_inline = [&] {
    for (std::size_t i = 0; i < count; ++i) body(i);
  };
  if (workers_.empty() || count == 1) {
    if (telemetry_enabled()) {
      const std::int64_t t0 = Telemetry::now_ns();
      run_inline();
      pool_busy_counter(0).add(
          static_cast<double>(Telemetry::now_ns() - t0) / 1e6);
      pool_jobs_counter().add(1.0);
      pool_chunks_counter().add(static_cast<double>(count));
      pool_chunks_per_job_histogram().record(static_cast<double>(count));
      return;
    }
    run_inline();
    return;
  }

  std::unique_lock lock(mutex_);
  if (job_active_) {
    // A job is already in flight: this is a nested parallel_map (a
    // parallel_map called from inside another one's body). Run it inline
    // instead of corrupting the active job.
    lock.unlock();
    run_inline();
    return;
  }
  job_.body = &body;
  job_.next_task = 0;
  job_.task_count = count;
  job_.tasks_done = 0;
  ++job_.generation;
  job_active_ = true;
  if (telemetry_enabled()) {
    pool_jobs_counter().add(1.0);
    pool_chunks_per_job_histogram().record(static_cast<double>(count));
  }
  work_ready_.notify_all();

  drain_job(lock, 0);  // the caller works too
  job_done_.wait(lock, [&] { return job_.tasks_done == job_.task_count; });
  job_active_ = false;
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
