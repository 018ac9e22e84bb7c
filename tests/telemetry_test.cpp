// Tests for the telemetry layer: disabled-by-default no-op behavior,
// counter and histogram exactness, RAII span recording and nesting (on
// the main thread and across pool threads), ring-overflow drop-newest
// accounting, the Chrome trace export, and the purity contract — engine
// digests are bit-identical with tracing on or off at 1 and 4 threads.

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdio>
#include <fstream>
#include <map>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "tpcool/core/pipeline_pool.hpp"
#include "tpcool/core/solve_cache.hpp"
#include "tpcool/datacenter/fleet.hpp"
#include "tpcool/datacenter/streaming.hpp"
#include "tpcool/datacenter/workload_gen.hpp"
#include "tpcool/util/error.hpp"
#include "tpcool/util/telemetry.hpp"
#include "tpcool/util/thread_pool.hpp"

namespace tpcool::util {
namespace {

// Coarse grid: these tests assert telemetry semantics, not physics.
constexpr double kCell = 2.0e-3;

/// Telemetry is a process-wide singleton, so every test starts from a
/// clean enabled registry and leaves it disabled with the default ring
/// capacity re-armed (capacity changes apply on the next write to an
/// emptied ring, so reset() after enable() is enough).
class TelemetryTest : public ::testing::Test {
 protected:
  void SetUp() override {
    Telemetry::instance().enable();
    Telemetry::instance().reset();
  }
  void TearDown() override {
    Telemetry::instance().enable();  // restore default ring capacity
    Telemetry::instance().reset();
    Telemetry::instance().disable();
    ThreadPool::set_global_thread_count(0);
    core::SolveCache::global()->clear();
    core::PipelinePool::global().clear();
  }
};

/// Group merged spans by registry tid, preserving per-thread ring order.
std::map<std::uint32_t, std::vector<SpanRecord>> spans_by_tid() {
  std::map<std::uint32_t, std::vector<SpanRecord>> grouped;
  for (SpanRecord& span : Telemetry::instance().merged_spans()) {
    grouped[span.tid].push_back(std::move(span));
  }
  return grouped;
}

/// Assert the [start, end] scopes of one thread's spans overlap only by
/// containment.  Spans arrive in ring order (= end order); replay them
/// sorted by (start, -dur) against a scope stack.
void expect_proper_nesting(const std::vector<SpanRecord>& ring) {
  std::vector<SpanRecord> spans = ring;
  std::sort(spans.begin(), spans.end(),
            [](const SpanRecord& a, const SpanRecord& b) {
              return a.start_ns != b.start_ns ? a.start_ns < b.start_ns
                                              : a.dur_ns > b.dur_ns;
            });
  std::vector<std::int64_t> stack;  // open-scope end times
  for (const SpanRecord& span : spans) {
    const std::int64_t end = span.start_ns + span.dur_ns;
    while (!stack.empty() && span.start_ns >= stack.back()) stack.pop_back();
    if (!stack.empty()) {
      EXPECT_LE(end, stack.back())
          << span.name << " partially overlaps its enclosing span";
    }
    stack.push_back(end);
  }
}

// ----------------------------------------------------------- disabled path --

TEST_F(TelemetryTest, DisabledRecordsNothing) {
  Telemetry& telemetry = Telemetry::instance();
  telemetry.disable();

  TelemetryCounter& counter = telemetry.counter("test.disabled.counter");
  counter.add(5.0);
  telemetry.histogram("test.disabled.hist").record(7.0);
  {
    TraceSpan span("test.disabled.span");
    span.arg("x", 1.0);
    span.detail("ignored");
  }

  EXPECT_FALSE(telemetry_enabled());
  EXPECT_EQ(counter.value(), 0.0);
  EXPECT_EQ(telemetry.histogram("test.disabled.hist").count(), 0u);
  const MetricsSnapshot snapshot = telemetry.metrics();
  EXPECT_EQ(snapshot.spans, 0u);
  EXPECT_EQ(snapshot.dropped_spans, 0u);
}

// ----------------------------------------------------- counters and cells --

TEST_F(TelemetryTest, CountersAndHistogramsAreExact) {
  Telemetry& telemetry = Telemetry::instance();
  TelemetryCounter& counter = telemetry.counter("test.counter");
  counter.add();          // default delta 1
  counter.add(2.5);
  telemetry.counter("test.counter").add(0.5);  // same name, same cell
  EXPECT_EQ(counter.value(), 4.0);

  TelemetryHistogram& hist = telemetry.histogram("test.hist");
  for (const double v : {0.5, 1.0, 3.0, 100.0}) hist.record(v);
  EXPECT_EQ(hist.count(), 4u);

  const MetricsSnapshot snapshot = telemetry.metrics();
  const auto* recorded = [&]() -> const MetricsSnapshot::Histogram* {
    for (const auto& [name, h] : snapshot.histograms) {
      if (name == "test.hist") return &h;
    }
    return nullptr;
  }();
  ASSERT_NE(recorded, nullptr);
  EXPECT_EQ(recorded->count, 4u);
  EXPECT_DOUBLE_EQ(recorded->sum, 104.5);
  EXPECT_DOUBLE_EQ(recorded->min, 0.5);
  EXPECT_DOUBLE_EQ(recorded->max, 100.0);
  // Buckets: 0.5 and 1.0 land in (≤1], 3.0 in (2,4], 100.0 in (64,128].
  std::uint64_t total = 0;
  for (const auto& [upper, n] : recorded->buckets) {
    total += n;
    if (upper == 1.0) {
      EXPECT_EQ(n, 2u);
    } else if (upper == 4.0 || upper == 128.0) {
      EXPECT_EQ(n, 1u);
    }
  }
  EXPECT_EQ(total, 4u);
}

TEST_F(TelemetryTest, ResetZeroesCellsButHandlesStayValid) {
  Telemetry& telemetry = Telemetry::instance();
  TelemetryCounter& counter = telemetry.counter("test.reset.counter");
  counter.add(3.0);
  { TraceSpan span("test.reset.span"); }
  EXPECT_EQ(counter.value(), 3.0);
  EXPECT_GE(telemetry.metrics().spans, 1u);

  telemetry.reset();
  EXPECT_EQ(counter.value(), 0.0);  // same cell, zeroed in place
  EXPECT_EQ(telemetry.metrics().spans, 0u);
  EXPECT_EQ(telemetry.metrics().dropped_spans, 0u);
  counter.add(1.0);
  EXPECT_EQ(telemetry.counter("test.reset.counter").value(), 1.0);
}

// ------------------------------------------------------------------- spans --

TEST_F(TelemetryTest, SpansNestOnTheMainThread) {
  {
    TraceSpan outer("test.outer");
    outer.arg("level", 0.0);
    {
      TraceSpan inner("test.inner");
      inner.arg("level", 1.0);
      inner.detail("innermost");
    }
  }

  const std::vector<SpanRecord> spans = Telemetry::instance().merged_spans();
  ASSERT_EQ(spans.size(), 2u);
  // Ring order is completion order: the inner span ends (and records) first.
  EXPECT_EQ(spans[0].name, "test.inner");
  EXPECT_EQ(spans[1].name, "test.outer");
  EXPECT_EQ(spans[0].detail, "innermost");
  ASSERT_EQ(spans[0].args.size(), 1u);
  EXPECT_EQ(spans[0].args[0].first, "level");
  EXPECT_EQ(spans[0].args[0].second, 1.0);
  // Containment: the inner scope lies inside the outer scope.
  EXPECT_GE(spans[0].start_ns, spans[1].start_ns);
  EXPECT_LE(spans[0].start_ns + spans[0].dur_ns,
            spans[1].start_ns + spans[1].dur_ns);
  expect_proper_nesting(spans);
}

TEST_F(TelemetryTest, SpanArgsBeyondTheLimitAreIgnored) {
  {
    TraceSpan span("test.many_args");
    for (int i = 0; i < TraceSpan::kMaxArgs + 3; ++i) {
      span.arg("k", static_cast<double>(i));
    }
    span.detail(std::string(2 * TraceSpan::kMaxDetail, 'x'));  // truncated
  }
  const std::vector<SpanRecord> spans = Telemetry::instance().merged_spans();
  ASSERT_EQ(spans.size(), 1u);
  EXPECT_EQ(spans[0].args.size(),
            static_cast<std::size_t>(TraceSpan::kMaxArgs));
  EXPECT_EQ(spans[0].detail, std::string(TraceSpan::kMaxDetail, 'x'));
}

TEST_F(TelemetryTest, SpansNestAcrossPoolThreads) {
  ThreadPool pool(4);
  pool.parallel_for(32, [](std::size_t i) {
    TraceSpan task("test.task");
    task.arg("i", static_cast<double>(i));
    TraceSpan item("test.item");
    item.arg("i", static_cast<double>(i));
  });

  const auto grouped = spans_by_tid();
  std::size_t tasks = 0;
  std::size_t items = 0;
  for (const auto& [tid, ring] : grouped) {
    expect_proper_nesting(ring);
    std::int64_t last_end = 0;  // ring order is end order within a thread
    for (const SpanRecord& span : ring) {
      EXPECT_GE(span.start_ns + span.dur_ns, last_end);
      last_end = span.start_ns + span.dur_ns;
      tasks += span.name == "test.task" ? 1 : 0;
      items += span.name == "test.item" ? 1 : 0;
    }
  }
  // Every task and item recorded exactly once, wherever it ran.
  EXPECT_EQ(tasks, 32u);
  EXPECT_EQ(items, 32u);
  EXPECT_EQ(Telemetry::instance().metrics().dropped_spans, 0u);
  // The pool instrumented itself along the way.
  EXPECT_GE(Telemetry::instance().counter("pool.jobs").value(), 1.0);
  EXPECT_GE(Telemetry::instance().counter("pool.chunks").value(), 32.0);
}

TEST_F(TelemetryTest, FullRingDropsNewestAndCountsThem) {
  Telemetry& telemetry = Telemetry::instance();
  telemetry.enable({.ring_capacity = 4});
  telemetry.reset();  // empty the ring so the new capacity takes effect

  for (int i = 0; i < 10; ++i) {
    TraceSpan span("test.overflow");
    span.arg("i", static_cast<double>(i));
  }

  const MetricsSnapshot snapshot = telemetry.metrics();
  EXPECT_EQ(snapshot.spans, 4u);
  EXPECT_EQ(snapshot.dropped_spans, 6u);
  // Drop-newest keeps the oldest prefix, in order.
  const std::vector<SpanRecord> spans = telemetry.merged_spans();
  ASSERT_EQ(spans.size(), 4u);
  for (int i = 0; i < 4; ++i) {
    ASSERT_EQ(spans[static_cast<std::size_t>(i)].args.size(), 1u);
    EXPECT_EQ(spans[static_cast<std::size_t>(i)].args[0].second,
              static_cast<double>(i));
  }
}

// ------------------------------------------------------------------ export --

TEST_F(TelemetryTest, ChromeTraceExportRoundTrips) {
  Telemetry& telemetry = Telemetry::instance();
  {
    TraceSpan outer("test.export.outer");
    TraceSpan inner("test.export.inner");
    inner.arg("n", 42.0);
    inner.detail("with \"quotes\" and \\slashes");
  }
  telemetry.counter("test.export.counter").add(7.0);

  const std::string trace_path = testing::TempDir() + "telemetry_trace.json";
  telemetry.export_chrome_trace(trace_path);

  std::ifstream trace_in(trace_path);
  ASSERT_TRUE(trace_in.good());
  std::stringstream trace_text;
  trace_text << trace_in.rdbuf();
  const std::string trace = trace_text.str();
  EXPECT_NE(trace.find("\"tpcool-trace-v1\""), std::string::npos);
  EXPECT_NE(trace.find("\"test.export.outer\""), std::string::npos);
  EXPECT_NE(trace.find("\"test.export.inner\""), std::string::npos);
  EXPECT_NE(trace.find("\"ph\": \"X\""), std::string::npos);
  EXPECT_NE(trace.find("\"metrics\""), std::string::npos);
  EXPECT_NE(trace.find("\"tpcool-metrics-v2\""), std::string::npos);
  EXPECT_NE(trace.find("\"test.export.counter\": 7"), std::string::npos);
  EXPECT_NE(trace.find("with \\\"quotes\\\" and \\\\slashes"),
            std::string::npos);

  std::remove(trace_path.c_str());
}

TEST_F(TelemetryTest, ExportToUnwritablePathThrows) {
  EXPECT_THROW(
      Telemetry::instance().export_chrome_trace("/nonexistent-dir/trace.json"),
      PreconditionError);
}

// -------------------------------------------------------- purity contract --

TEST_F(TelemetryTest, EngineDigestsAreIdenticalTracingOnOrOff) {
  const datacenter::FleetConfig config =
      datacenter::make_heterogeneous_fleet(2, 2, kCell);
  datacenter::WorkloadGenConfig scenario;
  scenario.seed = 9;
  scenario.streams = 3;
  scenario.duration_s = 4.0 * 900.0;
  scenario.slot_s = 900.0;
  scenario.mean_phase_slots = 2.0;
  const std::vector<workload::WorkloadTrace> streams =
      datacenter::WorkloadGenerator(scenario).generate();

  const auto run_digest = [&]() {
    core::SolveCache::global()->clear();  // recompute, don't replay bits
    datacenter::StreamingFleetEngine engine(config, streams);
    datacenter::FleetResultAggregator aggregator;
    engine.add_observer(aggregator);
    engine.run();
    return datacenter::fleet_digest(aggregator.result());
  };

  for (const std::size_t threads : {1u, 4u}) {
    ThreadPool::set_global_thread_count(threads);
    SCOPED_TRACE("threads=" + std::to_string(threads));

    Telemetry::instance().disable();
    const std::uint64_t untraced = run_digest();

    Telemetry::instance().enable();
    Telemetry::instance().reset();
    const std::uint64_t traced = run_digest();

    EXPECT_EQ(traced, untraced);
    // The traced run actually recorded: every cache miss is one solve span.
    const MetricsSnapshot snapshot = Telemetry::instance().metrics();
    EXPECT_EQ(snapshot.dropped_spans, 0u);
    const std::vector<SpanRecord> spans =
        Telemetry::instance().merged_spans();
    const auto solve_spans = static_cast<double>(std::count_if(
        spans.begin(), spans.end(),
        [](const SpanRecord& s) { return s.name == "solve"; }));
    EXPECT_GT(solve_spans, 0.0);
    EXPECT_EQ(solve_spans,
              Telemetry::instance().counter("solve.executed").value());
    EXPECT_GE(Telemetry::instance().counter("fleet.intervals").value(), 1.0);
    // Only a miss checks a server out, so checkouts equal solves.
    EXPECT_EQ(Telemetry::instance().counter("pipeline.constructions").value() +
                  Telemetry::instance().counter("pipeline.reuses").value(),
              solve_spans);
  }
}

}  // namespace
}  // namespace tpcool::util
