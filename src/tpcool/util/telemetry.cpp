#include "tpcool/util/telemetry.hpp"

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <iostream>
#include <map>
#include <memory>
#include <mutex>

#include "tpcool/util/error.hpp"

namespace tpcool::util {

namespace telemetry_detail {

/// One finished span, POD so ring writes are a plain struct copy.  Name and
/// arg-key pointers are required to have static storage duration (the
/// TraceSpan contract), so storing the pointers is safe past thread death.
struct SpanSlot {
  const char* name = nullptr;
  std::int64_t start_ns = 0;
  std::int64_t dur_ns = 0;
  int arg_count = 0;
  const char* arg_keys[TraceSpan::kMaxArgs] = {};
  double arg_values[TraceSpan::kMaxArgs] = {};
  char detail[TraceSpan::kMaxDetail + 1] = {};
};

/// Single-producer bounded span buffer.  Only the owning thread writes;
/// `count` is published with release so exporters (acquire) always see a
/// fully written prefix.  Full buffer drops the new span (keeping the
/// recorded prefix nesting-consistent) and counts the loss.
struct ThreadRing {
  ThreadRing(std::uint32_t tid_in, std::size_t capacity) : tid(tid_in) {
    slots.resize(capacity);
  }

  void push(const SpanSlot& slot, std::size_t desired_capacity) {
    const std::uint64_t n = count.load(std::memory_order_relaxed);
    // Capacity changes (enable() with a new config) apply on the next
    // write to an *empty* ring — resizing a published prefix would race
    // with exporters, so after recording starts the size is pinned until
    // reset().
    if (n == 0 && slots.size() != desired_capacity) {
      slots.clear();
      slots.resize(desired_capacity);
    }
    if (n >= slots.size()) {
      dropped.fetch_add(1, std::memory_order_relaxed);
      return;
    }
    slots[n] = slot;
    count.store(n + 1, std::memory_order_release);
  }

  std::uint32_t tid;
  std::vector<SpanSlot> slots;
  std::atomic<std::uint64_t> count{0};
  std::atomic<std::uint64_t> dropped{0};
};

namespace {

/// Raw steady_clock reading, in ns.
std::int64_t steady_now_ns() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

/// The enable()/reset() epoch all span timestamps are relative to.
std::atomic<std::int64_t> g_epoch_ns{0};

/// Histogram bucket for `value`: smallest k with 2^k >= value (0 for
/// value <= 1), clamped to the last bucket.
std::size_t bucket_index(double value) {
  if (!(value > 1.0)) return 0;
  int k = std::ilogb(value);
  if (std::ldexp(1.0, k) < value) ++k;
  return std::min<std::size_t>(static_cast<std::size_t>(k),
                               TelemetryHistogram::kBuckets - 1);
}

void atomic_min(std::atomic<double>& cell, double value) {
  double cur = cell.load(std::memory_order_relaxed);
  while (value < cur &&
         !cell.compare_exchange_weak(cur, value, std::memory_order_relaxed)) {
  }
}

void atomic_max(std::atomic<double>& cell, double value) {
  double cur = cell.load(std::memory_order_relaxed);
  while (value > cur &&
         !cell.compare_exchange_weak(cur, value, std::memory_order_relaxed)) {
  }
}

// --- JSON emission helpers (mirrors the hand-rolled writers in the bench
// layer; no JSON dependency in the library). ---

void json_escape(std::string& out, std::string_view text) {
  for (const char c : text) {
    switch (c) {
      case '"': out += "\\\""; break;
      case '\\': out += "\\\\"; break;
      case '\n': out += "\\n"; break;
      case '\r': out += "\\r"; break;
      case '\t': out += "\\t"; break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          char buf[8];
          std::snprintf(buf, sizeof(buf), "\\u%04x", c);
          out += buf;
        } else {
          out += c;
        }
    }
  }
}

void json_number(std::string& out, double value) {
  if (!std::isfinite(value)) {
    out += "0";
    return;
  }
  char buf[32];
  // Shortest round-trippable form; integral values print without exponent.
  if (value == static_cast<double>(static_cast<std::int64_t>(value)) &&
      std::abs(value) < 1e15) {
    std::snprintf(buf, sizeof(buf), "%lld",
                  static_cast<long long>(static_cast<std::int64_t>(value)));
  } else {
    std::snprintf(buf, sizeof(buf), "%.17g", value);
  }
  out += buf;
}

/// Microseconds with ns resolution, the Chrome trace time unit.
void json_us(std::string& out, std::int64_t ns) {
  char buf[40];
  std::snprintf(buf, sizeof(buf), "%lld.%03lld",
                static_cast<long long>(ns / 1000),
                static_cast<long long>(ns % 1000));
  out += buf;
}

/// The snapshot as the trace's "metrics" object, indented one level.
void append_metrics_json(std::string& out, const MetricsSnapshot& snap) {
  const std::string pad = "  ";
  out += "{\n";
  out += pad;
  out += "  \"schema\": \"tpcool-metrics-v2\",\n";
  out += pad;
  out += "  \"spans\": ";
  json_number(out, static_cast<double>(snap.spans));
  out += ",\n";
  out += pad;
  out += "  \"dropped_spans\": ";
  json_number(out, static_cast<double>(snap.dropped_spans));
  out += ",\n";
  out += pad;
  out += "  \"threads\": ";
  json_number(out, static_cast<double>(snap.threads));
  out += ",\n";

  out += pad;
  out += "  \"counters\": {";
  for (std::size_t i = 0; i < snap.counters.size(); ++i) {
    out += i ? ", " : "";
    out += '"';
    json_escape(out, snap.counters[i].first);
    out += "\": ";
    json_number(out, snap.counters[i].second);
  }
  out += "},\n";

  out += pad;
  out += "  \"histograms\": {";
  for (std::size_t i = 0; i < snap.histograms.size(); ++i) {
    const auto& [name, h] = snap.histograms[i];
    out += i ? ", " : "";
    out += '"';
    json_escape(out, name);
    out += "\": {\"count\": ";
    json_number(out, static_cast<double>(h.count));
    out += ", \"sum\": ";
    json_number(out, h.sum);
    out += ", \"min\": ";
    json_number(out, h.min);
    out += ", \"max\": ";
    json_number(out, h.max);
    out += ", \"buckets\": [";
    for (std::size_t b = 0; b < h.buckets.size(); ++b) {
      out += b ? ", " : "";
      out += '[';
      json_number(out, h.buckets[b].first);
      out += ", ";
      json_number(out, static_cast<double>(h.buckets[b].second));
      out += ']';
    }
    out += "]}";
  }
  out += "}\n";
  out += pad;
  out += "}";
}

void write_file_or_throw(const std::string& path, const std::string& body) {
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  if (!out) {
    throw PreconditionError(
        "telemetry: cannot open trace file for writing: " + path);
  }
  out << body;
  out.flush();
  if (!out) {
    throw PreconditionError("telemetry: write failed for trace file: " +
                            path);
  }
}

}  // namespace
}  // namespace telemetry_detail

void TelemetryHistogram::record(double value) noexcept {
  if (!telemetry_enabled()) return;
  buckets_[telemetry_detail::bucket_index(value)].fetch_add(
      1, std::memory_order_relaxed);
  count_.fetch_add(1, std::memory_order_relaxed);
  sum_.fetch_add(value, std::memory_order_relaxed);
  telemetry_detail::atomic_min(min_, value);
  telemetry_detail::atomic_max(max_, value);
}

struct Telemetry::Impl {
  mutable std::mutex mutex;
  // Node-based maps: cell addresses are stable for the process lifetime.
  std::map<std::string, std::unique_ptr<TelemetryCounter>, std::less<>>
      counters;
  std::map<std::string, std::unique_ptr<TelemetryHistogram>, std::less<>>
      histograms;
  std::vector<std::shared_ptr<telemetry_detail::ThreadRing>> rings;
  std::uint32_t next_tid = 0;
  std::atomic<std::size_t> ring_capacity{TelemetryConfig{}.ring_capacity};
};

Telemetry::Telemetry() : impl_(new Impl) {}

Telemetry& Telemetry::instance() {
  // Leaky singleton: never destroyed, so spans recorded from static
  // destructors or the atexit exporter are safe.  Still-reachable, so
  // LeakSanitizer stays quiet.
  static Telemetry* const singleton = new Telemetry;
  return *singleton;
}

void Telemetry::enable(const TelemetryConfig& config) {
  impl_->ring_capacity.store(std::max<std::size_t>(config.ring_capacity, 1),
                             std::memory_order_relaxed);
  const bool was_enabled =
      telemetry_detail::g_enabled.exchange(true, std::memory_order_relaxed);
  if (!was_enabled) {
    telemetry_detail::g_epoch_ns.store(telemetry_detail::steady_now_ns(),
                                       std::memory_order_relaxed);
  }
}

void Telemetry::disable() {
  telemetry_detail::g_enabled.store(false, std::memory_order_relaxed);
}

void Telemetry::reset() {
  std::lock_guard lock(impl_->mutex);
  for (auto& [name, cell] : impl_->counters) {
    cell->value_.store(0.0, std::memory_order_relaxed);
  }
  for (auto& [name, cell] : impl_->histograms) {
    for (auto& bucket : cell->buckets_) {
      bucket.store(0, std::memory_order_relaxed);
    }
    cell->count_.store(0, std::memory_order_relaxed);
    cell->sum_.store(0.0, std::memory_order_relaxed);
    cell->min_.store(std::numeric_limits<double>::infinity(),
                     std::memory_order_relaxed);
    cell->max_.store(-std::numeric_limits<double>::infinity(),
                     std::memory_order_relaxed);
  }
  for (auto& ring : impl_->rings) {
    ring->count.store(0, std::memory_order_relaxed);
    ring->dropped.store(0, std::memory_order_relaxed);
  }
  telemetry_detail::g_epoch_ns.store(telemetry_detail::steady_now_ns(),
                                     std::memory_order_relaxed);
}

TelemetryCounter& Telemetry::counter(std::string_view name) {
  std::lock_guard lock(impl_->mutex);
  auto it = impl_->counters.find(name);
  if (it == impl_->counters.end()) {
    it = impl_->counters
             .emplace(std::string(name), std::make_unique<TelemetryCounter>())
             .first;
  }
  return *it->second;
}

TelemetryHistogram& Telemetry::histogram(std::string_view name) {
  std::lock_guard lock(impl_->mutex);
  auto it = impl_->histograms.find(name);
  if (it == impl_->histograms.end()) {
    it = impl_->histograms
             .emplace(std::string(name), std::make_unique<TelemetryHistogram>())
             .first;
  }
  return *it->second;
}

telemetry_detail::ThreadRing& Telemetry::local_ring() {
  thread_local std::shared_ptr<telemetry_detail::ThreadRing> ring;
  if (!ring) {
    std::lock_guard lock(impl_->mutex);
    ring = std::make_shared<telemetry_detail::ThreadRing>(
        impl_->next_tid++, impl_->ring_capacity.load(std::memory_order_relaxed));
    // The registry keeps rings alive past thread death (ThreadPool workers
    // die on every resize) so their spans survive until export.
    impl_->rings.push_back(ring);
  }
  return *ring;
}

TraceSpan::~TraceSpan() {
  if (!active_) return;
  telemetry_detail::SpanSlot slot;
  slot.name = name_;
  slot.start_ns = start_ns_;
  slot.dur_ns = std::max<std::int64_t>(Telemetry::now_ns() - start_ns_, 0);
  slot.arg_count = arg_count_;
  for (int i = 0; i < arg_count_; ++i) {
    slot.arg_keys[i] = arg_keys_[i];
    slot.arg_values[i] = arg_values_[i];
  }
  std::memcpy(slot.detail, detail_, sizeof(slot.detail));
  Telemetry& telemetry = Telemetry::instance();
  telemetry.local_ring().push(
      slot, telemetry.impl_->ring_capacity.load(std::memory_order_relaxed));
}

void TraceSpan::detail(std::string_view text) noexcept {
  if (!active_) return;
  const std::size_t n = std::min(text.size(), kMaxDetail);
  std::memcpy(detail_, text.data(), n);
  detail_[n] = '\0';
}

std::int64_t Telemetry::now_ns() {
  return telemetry_detail::steady_now_ns() -
         telemetry_detail::g_epoch_ns.load(std::memory_order_relaxed);
}

MetricsSnapshot Telemetry::metrics() const {
  std::lock_guard lock(impl_->mutex);
  MetricsSnapshot snap;
  snap.counters.reserve(impl_->counters.size());
  for (const auto& [name, cell] : impl_->counters) {
    snap.counters.emplace_back(name, cell->value());
  }
  snap.histograms.reserve(impl_->histograms.size());
  for (const auto& [name, cell] : impl_->histograms) {
    MetricsSnapshot::Histogram h;
    h.count = cell->count_.load(std::memory_order_relaxed);
    h.sum = cell->sum_.load(std::memory_order_relaxed);
    if (h.count > 0) {
      h.min = cell->min_.load(std::memory_order_relaxed);
      h.max = cell->max_.load(std::memory_order_relaxed);
    }
    for (std::size_t b = 0; b < TelemetryHistogram::kBuckets; ++b) {
      const std::uint64_t n = cell->buckets_[b].load(std::memory_order_relaxed);
      if (n > 0) {
        h.buckets.emplace_back(std::ldexp(1.0, static_cast<int>(b)), n);
      }
    }
    snap.histograms.emplace_back(name, std::move(h));
  }
  for (const auto& ring : impl_->rings) {
    snap.spans += ring->count.load(std::memory_order_acquire);
    snap.dropped_spans += ring->dropped.load(std::memory_order_relaxed);
  }
  snap.threads = impl_->rings.size();
  return snap;
}

std::vector<SpanRecord> Telemetry::merged_spans() const {
  std::vector<std::shared_ptr<telemetry_detail::ThreadRing>> rings;
  {
    std::lock_guard lock(impl_->mutex);
    rings = impl_->rings;
  }
  std::vector<SpanRecord> out;
  for (const auto& ring : rings) {
    const std::uint64_t n = ring->count.load(std::memory_order_acquire);
    for (std::uint64_t i = 0; i < n; ++i) {
      const telemetry_detail::SpanSlot& slot = ring->slots[i];
      SpanRecord record;
      record.name = slot.name;
      record.tid = ring->tid;
      record.start_ns = slot.start_ns;
      record.dur_ns = slot.dur_ns;
      for (int a = 0; a < slot.arg_count; ++a) {
        record.args.emplace_back(slot.arg_keys[a], slot.arg_values[a]);
      }
      record.detail = slot.detail;
      out.push_back(std::move(record));
    }
  }
  return out;
}

void Telemetry::export_chrome_trace(const std::string& path) const {
  const MetricsSnapshot snap = metrics();
  const std::vector<SpanRecord> spans = merged_spans();

  std::string out;
  out.reserve(256 + spans.size() * 160);
  out += "{\n  \"displayTimeUnit\": \"ms\",\n";
  out += "  \"otherData\": {\"schema\": \"tpcool-trace-v1\"},\n";
  out += "  \"metrics\": ";
  telemetry_detail::append_metrics_json(out, snap);
  out += ",\n  \"traceEvents\": [\n";

  out +=
      "    {\"name\": \"process_name\", \"ph\": \"M\", \"pid\": 1, "
      "\"args\": {\"name\": \"tpcool\"}}";
  for (std::size_t t = 0; t < snap.threads; ++t) {
    out += ",\n    {\"name\": \"thread_name\", \"ph\": \"M\", \"pid\": 1, ";
    out += "\"tid\": ";
    telemetry_detail::json_number(out, static_cast<double>(t));
    out += ", \"args\": {\"name\": \"";
    out += t == 0 ? "tpcool main" : "tpcool thread " + std::to_string(t);
    out += "\"}}";
  }

  // Per-thread ring order == span end order, which the inspector checks as
  // its monotonic-timestamp invariant.
  for (const SpanRecord& span : spans) {
    out += ",\n    {\"name\": \"";
    telemetry_detail::json_escape(out, span.name);
    out += "\", \"ph\": \"X\", \"cat\": \"tpcool\", \"ts\": ";
    telemetry_detail::json_us(out, span.start_ns);
    out += ", \"dur\": ";
    telemetry_detail::json_us(out, span.dur_ns);
    out += ", \"pid\": 1, \"tid\": ";
    telemetry_detail::json_number(out, static_cast<double>(span.tid));
    if (!span.args.empty() || !span.detail.empty()) {
      out += ", \"args\": {";
      bool first = true;
      for (const auto& [key, value] : span.args) {
        if (!first) out += ", ";
        first = false;
        out += '"';
        telemetry_detail::json_escape(out, key);
        out += "\": ";
        telemetry_detail::json_number(out, value);
      }
      if (!span.detail.empty()) {
        if (!first) out += ", ";
        out += "\"detail\": \"";
        telemetry_detail::json_escape(out, span.detail);
        out += '"';
      }
      out += '}';
    }
    out += '}';
  }
  out += "\n  ]\n}\n";

  telemetry_detail::write_file_or_throw(path, out);
}

namespace {

/// TPCOOL_TRACE_FILE: the process-exit export target ("" = not armed).
std::string g_trace_path;

void export_at_exit() {
  try {
    Telemetry::instance().export_chrome_trace(g_trace_path);
  } catch (const std::exception& error) {
    std::cerr << "tpcool: telemetry trace export failed: " << error.what()
              << '\n';
  }
}

/// TPCOOL_TRACE_FILE enables tracing before main() runs and exports the
/// Chrome trace at process exit.  This TU is always linked: every
/// instrumented hot path references telemetry symbols.
[[maybe_unused]] const bool g_env_trace_armed = [] {
  if (const char* path = std::getenv("TPCOOL_TRACE_FILE");
      path != nullptr && *path != '\0') {
    g_trace_path = path;
    Telemetry::instance().enable();
    std::atexit(&export_at_exit);
  }
  return true;
}();

}  // namespace

}  // namespace tpcool::util
