#pragma once
/// \file telemetry.hpp
/// \brief Process-wide tracing and metrics: RAII spans into per-thread ring
///        buffers, named counters and histograms, Chrome-trace export.
///
/// Every subsystem from the CG kernels up to the fleet engines is
/// instrumented against this registry (span taxonomy and counter names are
/// specified in docs/TRACING.md).  Two hard contracts, asserted in
/// tests/telemetry_test.cpp and gated in CI:
///
///  - **Overhead** — with telemetry disabled (the default), every
///    instrumentation site costs exactly one relaxed atomic load and a
///    predictable branch (`telemetry_enabled()`); no clock reads, no
///    allocation, no locks.  The tracing-off engine benches must stay
///    within the usual regression gates against their baselines.
///  - **Purity** — telemetry observes, never actuates: no instrumented
///    code path reads a counter, span, or clock value back into a result.
///    All engine digests are bit-identical with tracing on or off, at any
///    thread count.
///
/// Spans: `TraceSpan span("solve"); span.arg("iterations", n);` records a
/// complete-event into the calling thread's ring buffer when the span is
/// destroyed.  Rings are single-producer (the owning thread) and fixed
/// capacity; once full, new spans are dropped and counted
/// (`MetricsSnapshot::dropped_spans`) rather than overwriting — the
/// recorded prefix stays nesting-consistent.  Counters are exact even when
/// spans drop.
///
/// Export: `export_chrome_trace(path)` writes Chrome trace-event JSON
/// (loads directly in Perfetto / chrome://tracing) with the metrics
/// snapshot embedded under a top-level `"metrics"` key.  Setting
/// `TPCOOL_TRACE_FILE=<path>` enables tracing at startup and exports to
/// `path` at process exit.  `scripts/trace_inspect.py` validates emitted
/// traces.
///
/// Quiescence: merging rings is safe only while no other thread is
/// recording (the engines join their `parallel_map` fan-out before
/// returning, so "after a run" is always quiescent).
/// `export_chrome_trace()`, `metrics()`, `merged_spans()`, and `reset()`
/// are snapshot operations in that sense; calling them mid-fan-out yields a
/// torn (but memory-safe) view, never undefined behavior for counters.

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <limits>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

namespace tpcool::util {

namespace telemetry_detail {
/// The one process-wide gate.  Constant-initialized, so instrumentation in
/// static initializers is safe.
inline std::atomic<bool> g_enabled{false};
struct ThreadRing;
}  // namespace telemetry_detail

/// The whole cost of disabled telemetry: one relaxed load and a branch.
[[nodiscard]] inline bool telemetry_enabled() noexcept {
  return telemetry_detail::g_enabled.load(std::memory_order_relaxed);
}

/// Monotonic counter cell.  Handles returned by `Telemetry::counter()` are
/// valid for the process lifetime (cells are never deallocated; `reset()`
/// zeroes them in place), so hot paths resolve the name once and keep the
/// pointer.
class TelemetryCounter {
 public:
  /// No-op while telemetry is disabled, so counters are deltas over the
  /// enabled window, like everything else in the registry.
  void add(double delta = 1.0) noexcept {
    if (telemetry_enabled()) value_.fetch_add(delta, std::memory_order_relaxed);
  }
  [[nodiscard]] double value() const noexcept {
    return value_.load(std::memory_order_relaxed);
  }

 private:
  friend class Telemetry;
  std::atomic<double> value_{0.0};
};

/// Power-of-two-bucketed histogram cell: bucket k counts values in
/// (2^(k-1), 2^k] (bucket 0 is everything <= 1).  Exact count/sum/min/max
/// alongside, all updated lock-free.
class TelemetryHistogram {
 public:
  static constexpr std::size_t kBuckets = 64;

  void record(double value) noexcept;

  [[nodiscard]] std::uint64_t count() const noexcept {
    return count_.load(std::memory_order_relaxed);
  }

 private:
  friend class Telemetry;
  std::atomic<std::uint64_t> buckets_[kBuckets] = {};
  std::atomic<std::uint64_t> count_{0};
  std::atomic<double> sum_{0.0};
  std::atomic<double> min_{std::numeric_limits<double>::infinity()};
  std::atomic<double> max_{-std::numeric_limits<double>::infinity()};
};

/// One merged span, in per-thread ring order (= span end order).
struct SpanRecord {
  std::string name;
  std::uint32_t tid = 0;            ///< Registry-assigned small integer.
  std::int64_t start_ns = 0;        ///< Relative to the enable() epoch.
  std::int64_t dur_ns = 0;
  std::vector<std::pair<std::string, double>> args;
  std::string detail;               ///< Free-text arg ("" when unset).
};

/// Point-in-time copy of every registered metric (names sorted).
struct MetricsSnapshot {
  struct Histogram {
    std::uint64_t count = 0;
    double sum = 0.0;
    double min = 0.0;
    double max = 0.0;
    /// (upper bound, count) for every non-empty bucket.
    std::vector<std::pair<double, std::uint64_t>> buckets;
  };
  std::vector<std::pair<std::string, double>> counters;
  std::vector<std::pair<std::string, Histogram>> histograms;
  std::uint64_t spans = 0;          ///< Spans currently recorded in rings.
  std::uint64_t dropped_spans = 0;  ///< Spans lost to ring overflow.
  std::size_t threads = 0;          ///< Rings registered so far.
};

struct TelemetryConfig {
  /// Span slots per thread ring.  Rings owned by live threads re-size
  /// lazily (on that thread's next recorded span) after enable() changes
  /// this.  ~170 bytes per slot.
  std::size_t ring_capacity = 1 << 15;
};

/// The process-wide registry.  All members are thread-safe; see the file
/// comment for the quiescence caveat on snapshot operations.
class Telemetry {
 public:
  [[nodiscard]] static Telemetry& instance();

  /// Start recording: stamps the time epoch and flips the global gate.
  /// Re-enabling while enabled just updates the config.
  void enable(const TelemetryConfig& config = {});
  /// Stop recording (spans already started still record on destruction).
  void disable();
  /// Zero every counter and histogram cell, empty every ring, re-stamp
  /// the epoch.  Handles stay valid.
  void reset();

  /// Named-cell handles; created on first use, live for the process.
  [[nodiscard]] TelemetryCounter& counter(std::string_view name);
  [[nodiscard]] TelemetryHistogram& histogram(std::string_view name);

  [[nodiscard]] MetricsSnapshot metrics() const;
  /// Every ring's spans, per-thread in ring order (= end-time order),
  /// threads in registration order.
  [[nodiscard]] std::vector<SpanRecord> merged_spans() const;

  /// Chrome trace-event JSON (schema `tpcool-trace-v1`): thread-name
  /// metadata, one "X" event per span, and the metrics snapshot embedded
  /// under a top-level "metrics" key.  Throws PreconditionError when the
  /// file cannot be written.
  void export_chrome_trace(const std::string& path) const;

  /// Nanoseconds since the enable() epoch (callers gate on
  /// telemetry_enabled() first; this reads the clock unconditionally).
  [[nodiscard]] static std::int64_t now_ns();

 private:
  friend class TraceSpan;
  Telemetry();
  ~Telemetry() = delete;  // leaky singleton: immune to exit-order races

  /// The calling thread's ring (registered on first use).
  [[nodiscard]] telemetry_detail::ThreadRing& local_ring();

  struct Impl;
  Impl* impl_;
};

/// Scoped RAII span.  Constructing while telemetry is disabled makes every
/// member a no-op (the ctor is the single gated branch).  Not copyable or
/// movable: a span is pinned to its scope and thread.
class TraceSpan {
 public:
  static constexpr int kMaxArgs = 8;
  static constexpr std::size_t kMaxDetail = 39;

  /// `name` must have static storage duration (string literals): the ring
  /// stores the pointer, not a copy.
  explicit TraceSpan(const char* name) {
    if (!telemetry_enabled()) return;
    active_ = true;
    name_ = name;
    start_ns_ = Telemetry::now_ns();
  }
  ~TraceSpan();
  TraceSpan(const TraceSpan&) = delete;
  TraceSpan& operator=(const TraceSpan&) = delete;

  /// Attach a numeric argument (`key` must be a static string; at most
  /// kMaxArgs are kept, extras are ignored).
  void arg(const char* key, double value) noexcept {
    if (!active_ || arg_count_ >= kMaxArgs) return;
    arg_keys_[arg_count_] = key;
    arg_values_[arg_count_] = value;
    ++arg_count_;
  }

  /// Attach a short free-text argument (truncated to kMaxDetail bytes).
  void detail(std::string_view text) noexcept;

 private:
  bool active_ = false;
  int arg_count_ = 0;
  const char* name_ = nullptr;
  std::int64_t start_ns_ = 0;
  const char* arg_keys_[kMaxArgs] = {};
  double arg_values_[kMaxArgs] = {};
  char detail_[kMaxDetail + 1] = {};
};

}  // namespace tpcool::util
