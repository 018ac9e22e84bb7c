// Tests for the streaming scenario layer: workload-generator determinism
// (same seed => bit-identical traces at every thread count, distinct seeds
// differ, phases stay on the slot grid), the StreamingFleetEngine observer
// contract (ordering, registration order, spent-after-throw, bounded
// interval memory), batch == streaming bit-identity at 1/2/4 threads, and
// exact JSONL round trips (replay reconstructs the batch FleetResult's
// digest bit for bit), the golden bytes of the header, interval and
// summary records, seeded byte mutations of a stream that replay or throw
// the typed error, bytes that do not depend on the stream's locale, and
// warm reruns that the cache answers without a solve or a pool job.

#include <gtest/gtest.h>

#include <bit>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <limits>
#include <locale>
#include <random>
#include <sstream>
#include <stdexcept>
#include <string>
#include <vector>

#include "tpcool/core/pipeline_pool.hpp"
#include "tpcool/core/solve_cache.hpp"
#include "tpcool/datacenter/control.hpp"
#include "tpcool/datacenter/fleet.hpp"
#include "tpcool/datacenter/streaming.hpp"
#include "tpcool/datacenter/workload_gen.hpp"
#include "tpcool/util/error.hpp"
#include "tpcool/util/telemetry.hpp"
#include "tpcool/util/thread_pool.hpp"
#include "byte_mutation.hpp"

namespace tpcool::datacenter {
namespace {

// Coarse grid: these tests assert streaming semantics, not physics.
constexpr double kCell = 2.0e-3;

class StreamingTest : public ::testing::Test {
 protected:
  void TearDown() override {
    util::ThreadPool::set_global_thread_count(0);
    core::SolveCache::global()->clear();
    core::PipelinePool::global().clear();
  }
};

/// A short generated scenario the fleet tests can run quickly: 3 streams
/// over 6 fifteen-minute slots.
WorkloadGenConfig short_scenario(std::uint64_t seed) {
  WorkloadGenConfig config;
  config.seed = seed;
  config.streams = 3;
  config.duration_s = 6.0 * 900.0;
  config.slot_s = 900.0;
  config.mean_phase_slots = 2.0;
  return config;
}

// ------------------------------------------------------ workload generator --

TEST(WorkloadGenerator, SameSeedIsBitIdenticalAcrossThreadCounts) {
  const std::uint64_t reference =
      streams_digest(WorkloadGenerator(diurnal_fleet_day(42, 4)).generate());
  for (const std::size_t threads : {1u, 2u, 4u}) {
    util::ThreadPool::set_global_thread_count(threads);
    SCOPED_TRACE("threads=" + std::to_string(threads));
    EXPECT_EQ(
        streams_digest(WorkloadGenerator(diurnal_fleet_day(42, 4)).generate()),
        reference);
  }
  util::ThreadPool::set_global_thread_count(0);
}

TEST(WorkloadGenerator, PresetsReproduceTheirGoldenDigests) {
  // Pinned literals, not a run of this binary against itself: a change to
  // any load-model constant, the QoS mix or the random streams moves them.
  EXPECT_EQ(
      streams_digest(WorkloadGenerator(diurnal_fleet_day(42, 4)).generate()),
      0xf64377065762f85bULL);
  EXPECT_EQ(
      streams_digest(WorkloadGenerator(diurnal_fleet_week(42, 128)).generate()),
      0x9883445deedfeb1eULL);
}

TEST(WorkloadGenerator, DistinctSeedsProduceDistinctTraces) {
  const std::uint64_t a =
      streams_digest(WorkloadGenerator(diurnal_fleet_day(1, 4)).generate());
  const std::uint64_t b =
      streams_digest(WorkloadGenerator(diurnal_fleet_day(2, 4)).generate());
  EXPECT_NE(a, b);
}

TEST(WorkloadGenerator, StreamsAreIndependentOfGenerationOrder) {
  // stream(i) is a pure function of (config, i): generating stream 2 alone
  // equals stream 2 of the full set.
  const WorkloadGenerator gen(diurnal_fleet_day(7, 4));
  const std::vector<workload::WorkloadTrace> all = gen.generate();
  EXPECT_EQ(trace_digest(gen.stream(2)), trace_digest(all[2]));
  EXPECT_NE(trace_digest(all[0]), trace_digest(all[1]));  // not one trace x N
}

TEST(WorkloadGenerator, PhasesStayOnTheSlotGridAndCoverTheDuration) {
  const WorkloadGenerator gen(diurnal_fleet_day(3, 2));
  const double slot = gen.config().slot_s;
  for (const workload::WorkloadTrace& trace : gen.generate()) {
    double total = 0.0;
    for (const workload::TracePhase& phase : trace.phases()) {
      const double slots = phase.duration_s / slot;
      EXPECT_EQ(slots, std::floor(slots));  // integer slot multiples
      total += phase.duration_s;
    }
    EXPECT_DOUBLE_EQ(total, gen.config().duration_s);
  }
  // Slot-grid boundaries collapse across streams: the fleet timeline is
  // bounded by the slot count, not streams x phases.
  const std::vector<double> boundaries =
      fleet_interval_boundaries(gen.generate());
  EXPECT_LE(boundaries.size(), gen.config().total_slots() + 1);
}

TEST(WorkloadGenerator, ValidatesItsConfig) {
  WorkloadGenConfig no_streams;
  no_streams.streams = 0;
  EXPECT_THROW(WorkloadGenerator{no_streams}, util::PreconditionError);
  WorkloadGenConfig zero_slot;
  zero_slot.slot_s = 0.0;
  EXPECT_THROW(WorkloadGenerator{zero_slot}, util::PreconditionError);
  // Slot counts too large for std::size_t are refused before the cast.
  WorkloadGenConfig endless;
  endless.duration_s = std::numeric_limits<double>::infinity();
  EXPECT_THROW(WorkloadGenerator{endless}, util::PreconditionError);
  WorkloadGenConfig tiny_slot;
  tiny_slot.slot_s = 1e-300;
  EXPECT_THROW(WorkloadGenerator{tiny_slot}, util::PreconditionError);
  // An endless mean phase is valid: every stream is one whole-trace phase.
  WorkloadGenConfig endless_phase = short_scenario(7);
  endless_phase.mean_phase_slots = std::numeric_limits<double>::infinity();
  for (const workload::WorkloadTrace& trace :
       WorkloadGenerator(endless_phase).generate()) {
    EXPECT_EQ(trace.phases().size(), 1u);
  }
  WorkloadGenConfig bad_bursts;
  bad_bursts.burst_rate_per_day = -1.0;
  EXPECT_THROW(WorkloadGenerator{bad_bursts}, util::PreconditionError);
}

TEST(WorkloadGenerator, QoSMixShiftsInteractiveTowardTheDiurnalPeak) {
  // Statistical, not physical: in the QoS mix, 1x-QoS phases are
  // weighted 6.5x more at full intensity than at zero, so a full day must
  // place more interactive time near the peak than deep off-peak.
  const WorkloadGenerator gen(diurnal_fleet_day(11, 8));
  double interactive_s = 0.0;
  double batch_s = 0.0;
  for (const workload::WorkloadTrace& trace : gen.generate()) {
    for (const workload::TracePhase& phase : trace.phases()) {
      if (phase.qos.factor == 1.0) interactive_s += phase.duration_s;
      if (phase.qos.factor == 3.0) batch_s += phase.duration_s;
    }
  }
  EXPECT_GT(interactive_s, 0.0);
  EXPECT_GT(batch_s, 0.0);
}

// ------------------------------------------------------- observer contract --

/// Records the callback sequence as a string of events.
class SequenceObserver final : public FleetObserver {
 public:
  explicit SequenceObserver(std::string tag, std::vector<std::string>& log)
      : tag_(std::move(tag)), log_(&log) {}

  void on_run_begin(const FleetConfig& config, std::size_t stream_count,
                    double total_duration_s) override {
    (void)config;
    (void)stream_count;
    (void)total_duration_s;
    log_->push_back(tag_ + ":begin");
  }
  void on_interval(const FleetInterval& interval,
                   const IntervalCounters& counters) override {
    (void)counters;
    log_->push_back(tag_ + ":interval" + std::to_string(interval.interval));
  }
  void on_run_end(const FleetRunSummary& summary) override {
    (void)summary;
    log_->push_back(tag_ + ":end");
  }

 private:
  std::string tag_;
  std::vector<std::string>* log_;
};

class ThrowingObserver final : public FleetObserver {
 public:
  void on_interval(const FleetInterval& interval,
                   const IntervalCounters& counters) override {
    (void)counters;
    if (interval.interval == 1) throw std::runtime_error("sink failed");
  }
};

TEST_F(StreamingTest, ObserversSeeEveryIntervalInOrderInRegistrationOrder) {
  const std::vector<workload::WorkloadTrace> streams =
      WorkloadGenerator(short_scenario(5)).generate();
  std::vector<std::string> log;
  SequenceObserver first("a", log);
  SequenceObserver second("b", log);

  StreamingFleetEngine engine(make_heterogeneous_fleet(2, 2, kCell), streams);
  engine.add_observer(first);
  engine.add_observer(second);
  engine.run();

  ASSERT_TRUE(engine.finished());
  const std::size_t n = engine.intervals_emitted();
  ASSERT_GE(n, 2u);
  ASSERT_EQ(log.size(), 2 * (n + 2));
  // begin first, end last, and within every event both observers fire in
  // registration order.
  EXPECT_EQ(log[0], "a:begin");
  EXPECT_EQ(log[1], "b:begin");
  for (std::size_t i = 0; i < n; ++i) {
    EXPECT_EQ(log[2 + 2 * i], "a:interval" + std::to_string(i));
    EXPECT_EQ(log[3 + 2 * i], "b:interval" + std::to_string(i));
  }
  EXPECT_EQ(log[log.size() - 2], "a:end");
  EXPECT_EQ(log[log.size() - 1], "b:end");

  // The bounded-memory contract, observed at run time.
  EXPECT_LE(engine.peak_held_intervals(),
            StreamingFleetEngine::kMaxHeldIntervals);
}

TEST_F(StreamingTest, AdvanceEmitsOneIntervalAtATime) {
  const std::vector<workload::WorkloadTrace> streams =
      WorkloadGenerator(short_scenario(5)).generate();
  StreamingFleetEngine engine(make_heterogeneous_fleet(2, 2, kCell), streams);
  FleetResultAggregator aggregator;
  engine.add_observer(aggregator);

  std::size_t steps = 0;
  while (engine.advance()) {
    ++steps;
    EXPECT_EQ(engine.intervals_emitted(), steps);
    EXPECT_FALSE(engine.finished());
  }
  EXPECT_TRUE(engine.finished());
  EXPECT_EQ(aggregator.result().intervals.size(), steps);
  EXPECT_FALSE(engine.advance());  // stays spent
  EXPECT_EQ(engine.summary().intervals, steps);
}

TEST_F(StreamingTest, ObserverThrowSpendsTheEngine) {
  const std::vector<workload::WorkloadTrace> streams =
      WorkloadGenerator(short_scenario(5)).generate();
  StreamingFleetEngine engine(make_heterogeneous_fleet(2, 2, kCell), streams);
  ThrowingObserver sink;
  engine.add_observer(sink);
  EXPECT_THROW(engine.run(), std::runtime_error);
  EXPECT_TRUE(engine.finished());
  EXPECT_FALSE(engine.advance());  // no later intervals are dispatched
  EXPECT_THROW((void)engine.summary(), util::PreconditionError);
}

TEST_F(StreamingTest, ObserversMustRegisterBeforeTheRun) {
  const std::vector<workload::WorkloadTrace> streams =
      WorkloadGenerator(short_scenario(5)).generate();
  StreamingFleetEngine engine(make_heterogeneous_fleet(2, 2, kCell), streams);
  FleetResultAggregator aggregator;
  engine.add_observer(aggregator);
  ASSERT_TRUE(engine.advance());
  FleetResultAggregator late;
  EXPECT_THROW(engine.add_observer(late), util::PreconditionError);
}

// ------------------------------------------------- batch == streaming bits --

TEST_F(StreamingTest, StreamingEqualsBatchBitwiseAtOneTwoFourThreads) {
  const FleetConfig config = make_heterogeneous_fleet(2, 2, kCell);
  const std::vector<workload::WorkloadTrace> streams =
      WorkloadGenerator(short_scenario(9)).generate();

  util::ThreadPool::set_global_thread_count(1);
  core::SolveCache::global()->clear();
  const FleetResult reference = FleetModel(config).run(streams);
  const std::uint64_t reference_digest = fleet_digest(reference);

  for (const std::size_t threads : {1u, 2u, 4u}) {
    util::ThreadPool::set_global_thread_count(threads);
    core::SolveCache::global()->clear();  // recompute, don't replay bits
    SCOPED_TRACE("threads=" + std::to_string(threads));

    StreamingFleetEngine engine(config, streams);
    FleetResultAggregator aggregator;
    engine.add_observer(aggregator);
    engine.run();
    EXPECT_EQ(fleet_digest(aggregator.result()), reference_digest);

    // The engine's summary carries the same totals as the batch result.
    const FleetRunSummary& summary = engine.summary();
    EXPECT_EQ(summary.total_it_energy_j, reference.total_it_energy_j);
    EXPECT_EQ(summary.avg_pue, reference.avg_pue);
    EXPECT_EQ(summary.qos_violations, reference.qos_violations);
    EXPECT_EQ(summary.intervals, reference.intervals.size());
    EXPECT_GT(summary.counters.solves + summary.counters.hits, 0u);
  }
}

// ------------------------------------------------------------- JSONL sink --

TEST_F(StreamingTest, JsonlReplayReconstructsTheBatchResultExactly) {
  const FleetConfig config = make_heterogeneous_fleet(2, 2, kCell);
  const std::vector<workload::WorkloadTrace> streams =
      WorkloadGenerator(short_scenario(13)).generate();

  std::ostringstream jsonl;
  StreamingFleetEngine engine(config, streams);
  FleetResultAggregator aggregator;
  JsonlFleetSink sink(jsonl);
  engine.add_observer(aggregator);
  engine.add_observer(sink);
  engine.run();

  std::istringstream replay_stream(jsonl.str());
  const FleetResult replayed = replay_fleet_jsonl(replay_stream);
  // Every digest-covered field round-trips bit for bit through the 17
  // significant digit JSONL encoding.
  EXPECT_EQ(fleet_digest(replayed), fleet_digest(aggregator.result()));
  ASSERT_EQ(replayed.intervals.size(), aggregator.result().intervals.size());
  EXPECT_EQ(replayed.intervals[0].jobs[0].benchmark,
            aggregator.result().intervals[0].jobs[0].benchmark);
}

TEST_F(StreamingTest, JsonlFileSinkRoundTripsThroughDisk) {
  const FleetConfig config = make_heterogeneous_fleet(2, 2, kCell);
  const std::vector<workload::WorkloadTrace> streams =
      WorkloadGenerator(short_scenario(13)).generate();
  const std::string path = ::testing::TempDir() + "tpcool_fleet_stream.jsonl";

  StreamingFleetEngine engine(config, streams);
  FleetResultAggregator aggregator;
  JsonlFleetSink sink(path);
  engine.add_observer(aggregator);
  engine.add_observer(sink);
  engine.run();

  const FleetResult replayed = replay_fleet_jsonl(path);
  EXPECT_EQ(fleet_digest(replayed), fleet_digest(aggregator.result()));
  std::remove(path.c_str());

  EXPECT_THROW((void)replay_fleet_jsonl("/no/such/file.jsonl"),
               util::PreconditionError);
  std::istringstream garbage("{\"type\":\"interval\"}\n");
  EXPECT_THROW((void)replay_fleet_jsonl(garbage), util::PreconditionError);
}

// ------------------------------------------------- cache-served questions --

/// Records every interval's solve/hit counters.
class CounterLog final : public FleetObserver {
 public:
  void on_interval(const FleetInterval& interval,
                   const IntervalCounters& counters) override {
    (void)interval;
    solves.push_back(counters.solves);
    hits.push_back(counters.hits);
  }
  std::vector<std::size_t> solves;
  std::vector<std::size_t> hits;
};

/// One streamed run's JSONL bytes, per-interval counters, and the pool
/// jobs it dispatched (telemetry must be on).
struct CountedRun {
  std::string jsonl;
  CounterLog log;
  double pool_jobs = 0.0;
};

CountedRun counted_run(const FleetConfig& config,
                       const std::vector<workload::WorkloadTrace>& streams) {
  CountedRun run;
  std::ostringstream jsonl;
  JsonlFleetSink sink(jsonl);
  StreamingFleetEngine engine(config, streams);
  engine.add_observer(sink);
  engine.add_observer(run.log);
  const util::TelemetryCounter& jobs =
      util::Telemetry::instance().counter("pool.jobs");
  const double before = jobs.value();
  engine.run();
  run.pool_jobs = jobs.value() - before;
  run.jsonl = jsonl.str();
  return run;
}

TEST_F(StreamingTest, WarmRerunsAnswerEveryQuestionWithoutThePool) {
  // The engine asks the cache inline and fans out only what it cannot
  // answer: a rerun on a warm cache solves nothing and dispatches no pool
  // job at any thread count, and its bytes do not depend on the count.
  const FleetConfig config = make_heterogeneous_fleet(2, 2, kCell);
  const std::vector<workload::WorkloadTrace> streams =
      WorkloadGenerator(short_scenario(13)).generate();
  util::Telemetry::instance().enable();
  util::Telemetry::instance().reset();

  util::ThreadPool::set_global_thread_count(4);
  core::SolveCache::global()->clear();
  const CountedRun cold = counted_run(config, streams);
  // Captured from the engine that fanned every question out: inline
  // answers change who asks, never what is asked or how it is counted.
  EXPECT_EQ(cold.log.solves, (std::vector<std::size_t>{3, 3, 2, 1, 1}));
  EXPECT_EQ(cold.log.hits, (std::vector<std::size_t>{3, 3, 4, 5, 5}));
  EXPECT_GT(cold.pool_jobs, 0.0);

  std::string warm_jsonl;
  for (const std::size_t threads : {1u, 4u}) {
    SCOPED_TRACE("threads=" + std::to_string(threads));
    util::ThreadPool::set_global_thread_count(threads);
    const CountedRun warm = counted_run(config, streams);
    EXPECT_EQ(warm.pool_jobs, 0.0);
    ASSERT_EQ(warm.log.solves.size(), cold.log.solves.size());
    for (std::size_t i = 0; i < warm.log.solves.size(); ++i) {
      EXPECT_EQ(warm.log.solves[i], 0u);
      EXPECT_EQ(warm.log.hits[i], cold.log.solves[i] + cold.log.hits[i]);
    }
    if (warm_jsonl.empty()) warm_jsonl = warm.jsonl;
    EXPECT_EQ(warm.jsonl, warm_jsonl);

    std::istringstream cold_stream(cold.jsonl);
    std::istringstream warm_stream(warm.jsonl);
    EXPECT_EQ(fleet_digest(replay_fleet_jsonl(warm_stream)),
              fleet_digest(replay_fleet_jsonl(cold_stream)));
  }
  util::Telemetry::instance().reset();
  util::Telemetry::instance().disable();
}

/// The controller of the v3 golden run.
FleetControllerConfig golden_controller_config() {
  FleetControllerConfig control;
  control.target = 1.12;
  control.window_intervals = 3;
  control.gain_c = 60.0;
  control.damping = 0.80;
  control.max_bias_c = 0.0;
  return control;
}

/// The v3 golden run: a fleet controller in the loop (its optional record
/// field live) on 4 streams, streamed to JSONL, with the batch result of
/// the same run alongside.
struct GoldenRun {
  std::string jsonl;
  FleetResult reference;
};

GoldenRun run_v3_golden() {
  FleetConfig config = make_heterogeneous_fleet(2, 2, kCell);
  for (std::size_t r = 0; r < config.racks.size(); ++r) {
    config.racks[r].chiller.ambient_c = 46.0 + 0.5 * static_cast<double>(r);
  }
  WorkloadGenConfig workload = short_scenario(21);
  workload.streams = 4;
  const std::vector<workload::WorkloadTrace> streams =
      WorkloadGenerator(workload).generate();
  FleetController controller(golden_controller_config());

  std::ostringstream jsonl;
  StreamingFleetEngine engine(config, streams);
  engine.set_controller(controller);
  FleetResultAggregator aggregator;
  JsonlFleetSink sink(jsonl);
  engine.add_observer(aggregator);
  engine.add_observer(sink);
  engine.run();
  return {jsonl.str(), aggregator.result()};
}

TEST_F(StreamingTest, JsonlRoundTripsControllerState) {
  // The v3 golden streams to JSONL and replays digest-exactly, controller
  // stamps included.
  const GoldenRun golden = run_v3_golden();
  EXPECT_NE(golden.jsonl.find("\"schema\":\"tpcool-fleet-stream-v3\""),
            std::string::npos);
  std::istringstream replay_stream(golden.jsonl);
  const FleetResult replayed = replay_fleet_jsonl(replay_stream);
  EXPECT_EQ(fleet_digest(replayed), fleet_digest(golden.reference));

  // The digest equality above already certifies the stamps; spot-check
  // that the scenario actually exercised them.
  bool saw_bias = false;
  for (const FleetInterval& interval : replayed.intervals) {
    EXPECT_TRUE(interval.control.active);
    EXPECT_EQ(interval.control.target, golden_controller_config().target);
    for (const double bias : interval.control.rack_bias_c) {
      saw_bias = saw_bias || bias != 0.0;
    }
  }
  EXPECT_TRUE(saw_bias);
}

TEST_F(StreamingTest, JsonlReplayOfMutatedStreamsReplaysOrThrowsTyped) {
  // Malformed input: seeded flips, insertions, deletions and truncations
  // of the v3 golden stream.  Each mutant must replay or throw
  // PreconditionError — never another exception, a crash or UB.
  constexpr std::size_t kMutants = 400;
  const std::string good = run_v3_golden().jsonl;
  std::mt19937_64 rng(20261018);
  std::size_t rejected = 0;
  for (std::size_t m = 0; m < kMutants; ++m) {
    const std::string mutant = test::mutate_bytes(good, rng);
    std::istringstream replay_stream(mutant);
    try {
      (void)replay_fleet_jsonl(replay_stream);
    } catch (const util::PreconditionError&) {
      ++rejected;
    } catch (const std::exception& error) {
      ADD_FAILURE() << "mutant " << m << " threw " << error.what();
    }
  }
  // The mix reaches both outcomes: damage the parser must refuse, and
  // damage (a changed digit) that still reads as a stream.
  EXPECT_GT(rejected, 0u);
  EXPECT_LT(rejected, kMutants);
}

/// Groups every digit of a formatted integer: 20 reads "2,0" under it.
struct EveryDigitGrouped final : std::numpunct<char> {
  char do_thousands_sep() const override { return ','; }
  std::string do_grouping() const override { return "\1"; }
};

TEST_F(StreamingTest, JsonlIgnoresTheStreamLocale) {
  // The sink formats every count and number itself, so a stream imbued
  // with digit grouping gets the same replayable bytes as a classic one.
  const FleetConfig config = make_heterogeneous_fleet(2, 2, kCell);
  const std::vector<workload::WorkloadTrace> streams =
      WorkloadGenerator(short_scenario(13)).generate();
  std::string bytes[2];
  for (const bool grouped : {false, true}) {
    core::SolveCache::global()->clear();  // same counters in both runs
    std::ostringstream jsonl;
    if (grouped) {
      jsonl.imbue(std::locale(jsonl.getloc(), new EveryDigitGrouped));
    }
    StreamingFleetEngine engine(config, streams);
    JsonlFleetSink sink(jsonl);
    engine.add_observer(sink);
    engine.run();
    bytes[grouped] = jsonl.str();
  }
  EXPECT_EQ(bytes[true], bytes[false]);
}

TEST_F(StreamingTest, JsonlRefusesAnyOtherSchema) {
  // Replay reads exactly the schema the sink writes: a stream under a
  // retired v1 or v2 header (or any other tag) is refused, never
  // half-replayed.
  const FleetConfig config = make_heterogeneous_fleet(2, 2, kCell);
  const std::vector<workload::WorkloadTrace> streams =
      WorkloadGenerator(short_scenario(13)).generate();

  std::ostringstream jsonl;
  StreamingFleetEngine engine(config, streams);
  JsonlFleetSink sink(jsonl);
  engine.add_observer(sink);
  engine.run();

  const std::string v3_tag = "tpcool-fleet-stream-v3";
  const std::size_t tag = jsonl.str().find(v3_tag);
  ASSERT_NE(tag, std::string::npos);
  for (const char version : {'1', '2'}) {
    // Turn the header's version digit from 3 to `version`.
    std::string retired = jsonl.str();
    retired[tag + v3_tag.size() - 1] = version;
    std::istringstream replay_stream(retired);
    EXPECT_THROW((void)replay_fleet_jsonl(replay_stream),
                 util::PreconditionError)
        << "v" << version;
  }
}

/// One hand-built interval whose doubles cover the encoder's edge cases:
/// both zeros, inexact decimals, a subnormal, DBL_MAX, a negative
/// exponent and an exponent past the 17-digit range.
FleetInterval edge_case_interval() {
  constexpr double kMax = std::numeric_limits<double>::max();
  FleetInterval interval;
  interval.interval = 4;
  interval.start_s = 0.0;
  interval.duration_s = 30.0;
  interval.it_power_w = 0.1;
  interval.chiller_power_w = 1.0 / 3.0;
  interval.pue = 1e22;
  interval.qos_violations = 1;
  interval.control.active = true;
  interval.control.target = -1.5e-7;
  interval.control.error = -0.0;
  interval.control.rack_bias_c = {5e-324, kMax};
  JobOutcome job;
  job.stream = 3;
  job.benchmark = "x264";
  job.qos_factor = -0.0;
  job.package_power_w = kMax;
  job.max_supply_temp_c = 30.0;
  job.die_max_c = 5e-324;
  job.tcase_c = -1.5e-7;
  job.tcase_limit_exceeded = true;
  interval.jobs.push_back(job);
  RackInterval rack;
  rack.jobs = 1;
  rack.it_power_w = 1e22;
  rack.headroom_c = 1.0 / 3.0;
  rack.cooling.supply_temp_c = 0.1;
  rack.cooling.return_temp_c = 0.0;
  rack.cooling.chiller_electrical_w = -0.0;
  interval.racks.push_back(rack);
  return interval;
}

bool same_bits(double a, double b) {
  return std::bit_cast<std::uint64_t>(a) == std::bit_cast<std::uint64_t>(b);
}

/// The end-of-run record beside `edge_case_interval`.
FleetRunSummary edge_case_summary() {
  FleetRunSummary summary;
  summary.intervals = 1;
  summary.duration_s = 30.0;
  summary.total_it_energy_j = 3.0;
  summary.total_chiller_energy_j = 10.0;
  summary.total_facility_energy_j = 1e22;
  summary.avg_pue = 1.0 / 3.0;
  summary.qos_violations = 1;
  summary.counters = {2, 5};
  return summary;
}

TEST(JsonlFleetSink, IntervalRecordMatchesTheGoldenBytes) {
  // The exact bytes of all three record types, pinned: numbers print as
  // printf's %.17g prints them (not shortest round trip), so JSONL streams
  // and their digests stay byte-identical across encoder changes.
  const std::string header =
      R"({"type":"header","schema":"tpcool-fleet-stream-v3","racks":0,)"
      R"("streams":1,"placement":"round-robin","duration_s":30})"
      "\n";
  const std::string golden =
      R"({"type":"interval","interval":4,"start_s":0,"duration_s":30,)"
      R"("it_power_w":0.10000000000000001,)"
      R"("chiller_power_w":0.33333333333333331,"pue":1e+22,)"
      R"("qos_violations":1,"solves":2,"hits":5,)"
      R"("control":{"target":-1.4999999999999999e-07,"error":-0,)"
      R"("bias_c":[4.9406564584124654e-324,1.7976931348623157e+308]},)"
      R"("jobs":[{"stream":3,"rack":0,"benchmark":"x264","qos_factor":-0,)"
      R"("package_power_w":1.7976931348623157e+308,"max_supply_temp_c":30,)"
      R"("die_max_c":4.9406564584124654e-324,)"
      R"("tcase_c":-1.4999999999999999e-07,"limit":true}],)"
      R"("racks":[{"jobs":1,"it_power_w":1e+22,)"
      R"("headroom_c":0.33333333333333331,)"
      R"("supply_temp_c":0.10000000000000001,"return_temp_c":0,)"
      R"("chiller_electrical_w":-0}]})"
      "\n";
  const std::string summary_record =
      R"({"type":"summary","intervals":1,"duration_s":30,)"
      R"("total_it_energy_j":3,"total_chiller_energy_j":10,)"
      R"("total_facility_energy_j":1e+22,"avg_pue":0.33333333333333331,)"
      R"("qos_violations":1,"solves":2,"hits":5})"
      "\n";
  const FleetInterval interval = edge_case_interval();
  std::ostringstream record;
  JsonlFleetSink(record).on_interval(interval, IntervalCounters{2, 5});
  EXPECT_EQ(record.str(), golden);

  // A whole stream is the three records in order; replay reconstructs
  // every double bit for bit, signed zero included.
  std::ostringstream jsonl;
  JsonlFleetSink sink(jsonl);
  sink.on_run_begin(FleetConfig{}, 1, 30.0);
  sink.on_interval(interval, IntervalCounters{2, 5});
  sink.on_run_end(edge_case_summary());
  EXPECT_EQ(jsonl.str(), header + golden + summary_record);
  std::istringstream replay_stream(jsonl.str());
  const FleetResult replayed = replay_fleet_jsonl(replay_stream);
  EXPECT_TRUE(same_bits(replayed.total_facility_energy_j, 1e22));
  EXPECT_TRUE(same_bits(replayed.avg_pue, 1.0 / 3.0));
  EXPECT_EQ(replayed.qos_violations, 1u);
  ASSERT_EQ(replayed.intervals.size(), 1u);
  const FleetInterval& back = replayed.intervals[0];
  EXPECT_TRUE(same_bits(back.start_s, interval.start_s));
  EXPECT_TRUE(same_bits(back.duration_s, interval.duration_s));
  EXPECT_TRUE(same_bits(back.it_power_w, interval.it_power_w));
  EXPECT_TRUE(same_bits(back.chiller_power_w, interval.chiller_power_w));
  EXPECT_TRUE(same_bits(back.pue, interval.pue));
  EXPECT_TRUE(same_bits(back.control.target, interval.control.target));
  EXPECT_TRUE(same_bits(back.control.error, interval.control.error));
  ASSERT_EQ(back.control.rack_bias_c.size(), 2u);
  for (std::size_t r = 0; r < 2; ++r) {
    EXPECT_TRUE(same_bits(back.control.rack_bias_c[r],
                          interval.control.rack_bias_c[r]));
  }
  ASSERT_EQ(back.jobs.size(), 1u);
  const JobOutcome& job = back.jobs[0];
  EXPECT_TRUE(same_bits(job.qos_factor, interval.jobs[0].qos_factor));
  EXPECT_TRUE(
      same_bits(job.package_power_w, interval.jobs[0].package_power_w));
  EXPECT_TRUE(
      same_bits(job.max_supply_temp_c, interval.jobs[0].max_supply_temp_c));
  EXPECT_TRUE(same_bits(job.die_max_c, interval.jobs[0].die_max_c));
  EXPECT_TRUE(same_bits(job.tcase_c, interval.jobs[0].tcase_c));
  ASSERT_EQ(back.racks.size(), 1u);
  const RackInterval& rack = back.racks[0];
  const RackInterval& sent = interval.racks[0];
  EXPECT_TRUE(same_bits(rack.it_power_w, sent.it_power_w));
  EXPECT_TRUE(same_bits(rack.headroom_c, sent.headroom_c));
  EXPECT_TRUE(same_bits(rack.cooling.supply_temp_c,
                        sent.cooling.supply_temp_c));
  EXPECT_TRUE(same_bits(rack.cooling.return_temp_c,
                        sent.cooling.return_temp_c));
  EXPECT_TRUE(same_bits(rack.cooling.chiller_electrical_w,
                        sent.cooling.chiller_electrical_w));
}

TEST(JsonlFleetSink, ReplayRejectsDamagedNumbers) {
  // A valid one-interval stream, then copies with one value damaged: an
  // unparsed number, counts that are negative, fractional or out of range,
  // and booleans that are not exactly true or false.  Each must throw
  // instead of replaying as 0, a wrapped count or a guessed flag.
  std::ostringstream jsonl;
  JsonlFleetSink sink(jsonl);
  sink.on_run_begin(FleetConfig{}, 1, 30.0);
  sink.on_interval(edge_case_interval(), IntervalCounters{2, 5});
  sink.on_run_end(edge_case_summary());
  const std::string good = jsonl.str();
  std::istringstream good_stream(good);
  EXPECT_NO_THROW((void)replay_fleet_jsonl(good_stream));

  const auto damaged = [&](const std::string& from, const std::string& to) {
    std::string text = good;
    const std::size_t at = text.find(from);
    EXPECT_NE(at, std::string::npos) << from;
    if (at != std::string::npos) text.replace(at, from.size(), to);
    return text;
  };
  for (const std::string& text : {
           damaged(R"("it_power_w":0.10000000000000001)", R"("it_power_w":XX)"),
           damaged(R"("pue":1e+22)", R"("pue":1e+22x)"),
           damaged(R"("bias_c":[4.9406564584124654e-324,)",
                   R"("bias_c":[4.9406564584124654e-324q,)"),
           damaged(R"("qos_violations":1)", R"("qos_violations":-3)"),
           damaged(R"("qos_violations":1)", R"("qos_violations":1.5)"),
           damaged(R"("qos_violations":1)",
                   R"("qos_violations":18446744073709551616)"),
           damaged(R"("rack":0)", R"("rack":+0)"),
           damaged(R"("stream":3)", R"("stream":)"),
           damaged(R"("limit":true)", R"("limit":trueish)"),
           damaged(R"("limit":true)", R"("limit":tru)"),
       }) {
    SCOPED_TRACE(text);
    std::istringstream replay_stream(text);
    EXPECT_THROW((void)replay_fleet_jsonl(replay_stream),
                 util::PreconditionError);
  }
}

// ---------------------------------------------------------- rollup reducer --

TEST_F(StreamingTest, RollupWindowsPartitionTheRunAndBoundTheExtremes) {
  const FleetConfig config = make_heterogeneous_fleet(2, 2, kCell);
  const std::vector<workload::WorkloadTrace> streams =
      WorkloadGenerator(short_scenario(17)).generate();

  StreamingFleetEngine engine(config, streams);
  FleetResultAggregator aggregator;
  FleetRollupReducer rollup(2.0 * 900.0);  // two slots per window
  engine.add_observer(aggregator);
  engine.add_observer(rollup);
  engine.run();

  const FleetResult& result = aggregator.result();
  ASSERT_FALSE(rollup.rollups().empty());
  std::size_t intervals = 0;
  double duration = 0.0;
  std::size_t violations = 0;
  for (const FleetRollupReducer::Rollup& window : rollup.rollups()) {
    intervals += window.intervals;
    duration += window.duration_s;
    violations += window.qos_violations;
    EXPECT_LE(window.it_power_w_min, window.it_power_w_mean);
    EXPECT_LE(window.it_power_w_mean, window.it_power_w_max);
    EXPECT_LE(window.pue_min, window.pue_mean);
    EXPECT_LE(window.pue_mean, window.pue_max);
  }
  EXPECT_EQ(intervals, result.intervals.size());
  EXPECT_DOUBLE_EQ(duration, result.duration_s);
  EXPECT_EQ(violations, result.qos_violations);

  EXPECT_THROW(FleetRollupReducer(0.0), util::PreconditionError);
  // An infinite window would start every rollup at 0 * inf = NaN.
  EXPECT_THROW(FleetRollupReducer(std::numeric_limits<double>::infinity()),
               util::PreconditionError);
}

}  // namespace
}  // namespace tpcool::datacenter
