// Tests for workload traces: phase lookup, validation and the built-in
// traces.  Playing traces through the transient thermal model is covered
// by tests/transient_test.cpp.

#include <gtest/gtest.h>

#include <limits>

#include "tpcool/util/error.hpp"
#include "tpcool/workload/trace.hpp"

namespace tpcool {
namespace {

TEST(WorkloadTrace, PhaseLookupByTime) {
  const workload::WorkloadTrace trace({
      {"x264", {1.0}, 10.0},
      {"canneal", {3.0}, 5.0},
      {"vips", {2.0}, 15.0},
  });
  EXPECT_EQ(trace.phase_count(), 3u);
  EXPECT_DOUBLE_EQ(trace.total_duration_s(), 30.0);
  EXPECT_EQ(trace.phase_at(0.0).benchmark, "x264");
  EXPECT_EQ(trace.phase_at(9.99).benchmark, "x264");
  EXPECT_EQ(trace.phase_at(10.0).benchmark, "canneal");
  EXPECT_EQ(trace.phase_at(14.99).benchmark, "canneal");
  EXPECT_EQ(trace.phase_at(15.0).benchmark, "vips");
  EXPECT_EQ(trace.phase_at(1e9).benchmark, "vips");  // clamped to last
  EXPECT_EQ(trace.phase_index_at(12.0), 1u);
}

TEST(WorkloadTrace, ValidatesPhases) {
  EXPECT_THROW(workload::WorkloadTrace({}), util::PreconditionError);
  EXPECT_THROW(workload::WorkloadTrace({{"x264", {1.0}, 0.0}}),
               util::PreconditionError);
  EXPECT_THROW(workload::WorkloadTrace({{"nonexistent", {1.0}, 1.0}}),
               util::PreconditionError);
  EXPECT_THROW(workload::WorkloadTrace({{"x264", {0.5}, 1.0}}),
               util::PreconditionError);
  // Non-finite durations and QoS factors, and finite phases whose total
  // overflows: an endless phase never reaches its interval boundary.
  const double inf = std::numeric_limits<double>::infinity();
  EXPECT_THROW(workload::WorkloadTrace({{"x264", {2.0}, 30.0},
                                        {"ferret", {2.0}, inf}}),
               util::PreconditionError);
  EXPECT_THROW(workload::WorkloadTrace({{"x264", {inf}, 30.0}}),
               util::PreconditionError);
  EXPECT_THROW(workload::WorkloadTrace({{"x264", {2.0}, 1e308},
                                        {"ferret", {2.0}, 1e308}}),
               util::PreconditionError);
  EXPECT_THROW((void)workload::make_daily_trace(inf), util::PreconditionError);
}

TEST(WorkloadTrace, BuiltinTracesValid) {
  const workload::WorkloadTrace daily = workload::make_daily_trace(5.0);
  EXPECT_GE(daily.phase_count(), 4u);
  EXPECT_GT(daily.total_duration_s(), 0.0);
  const workload::WorkloadTrace stress = workload::make_stress_trace(5.0);
  EXPECT_GE(stress.phase_count(), 3u);
  // The stress trace alternates tight and relaxed QoS.
  bool has_tight = false, has_relaxed = false;
  for (const auto& p : stress.phases()) {
    has_tight |= p.qos.factor == 1.0;
    has_relaxed |= p.qos.factor == 3.0;
  }
  EXPECT_TRUE(has_tight);
  EXPECT_TRUE(has_relaxed);
}

TEST(WorkloadTrace, EmptyTraceIsUnconstructible) {
  // There is no empty-trace run: validation rejects it before the fleet
  // layer (or its transient engine) can see one.
  EXPECT_THROW(workload::WorkloadTrace({}), util::PreconditionError);
}

}  // namespace
}  // namespace tpcool
