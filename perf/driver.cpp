/// \file driver.cpp
/// \brief The tpcool benchmark driver: runs one workload through the public
///        API of datacenter/, core/, thermal/ and util/ in one process and
///        prints its raw measurements as one JSON line.
///
/// perf/run.py builds and invokes this binary, checks its output, and turns
/// the raw numbers into the metrics listed in BENCHMARK.json (the metric
/// definitions live in perf/README.md).  Workloads:
///
///   paper_battery  core::run_table2 at 0.75 mm over all 13 PARSEC profiles
///                  (3 approaches x 3 QoS levels = 117 coupled solves).
///   fleet_stream   StreamingFleetEngine on a 16x8 heterogeneous 2 mm fleet
///                  fed a generated four-week, 128-stream trace, observed by
///                  a JSONL sink and a daily rollup, ending with a solve-cache
///                  snapshot save.
///   transient_day  TransientFleetEngine::run on the 2x2 fleet with three
///                  staggered daily traces (the day24_fleet2_adaptive case).
///
/// Both modes build the inputs repeatedly for a second on every CPU in turn
/// (reporting the 10th percentile and median set-up time).  Untraced mode
/// (--trace 0) then runs the coupling-accuracy probes and times cold runs
/// (solve cache and pipeline pool cleared before each) until `--seconds`
/// have elapsed.  There is no warm-up run: the thousands of set-ups have
/// grown the allocator, every run starts cold by design, and the first run
/// of a process reads 1.00 +- 0.07 of the later ones.  Traced mode (--trace 1)
/// makes one untraced run as the overhead baseline, then one run with
/// telemetry on, exported as a Chrome trace to `--out-dir`.  Every run is
/// followed by the workload's correctness checks, outside the timed region.
/// The global pool runs min(4, hardware threads) workers.
///
/// Usage:
///   tpcool_perf --workload NAME [--seed N] [--seconds S] [--trace 0|1]
///               [--out-dir DIR]

#include <sched.h>
#include <sys/resource.h>
#include <time.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <cstdlib>
#include <exception>
#include <filesystem>
#include <iomanip>
#include <iostream>
#include <memory>
#include <sstream>
#include <streambuf>
#include <string>
#include <thread>
#include <vector>

#include "tpcool/core/experiment.hpp"
#include "tpcool/core/pipeline_pool.hpp"
#include "tpcool/core/pipelines.hpp"
#include "tpcool/core/server.hpp"
#include "tpcool/core/solve_cache.hpp"
#include "tpcool/datacenter/fleet.hpp"
#include "tpcool/datacenter/streaming.hpp"
#include "tpcool/datacenter/transient.hpp"
#include "tpcool/datacenter/workload_gen.hpp"
#include "tpcool/util/fnv.hpp"
#include "tpcool/util/telemetry.hpp"
#include "tpcool/util/thread_pool.hpp"
#include "tpcool/workload/benchmark.hpp"
#include "tpcool/workload/trace.hpp"

namespace {

using namespace tpcool;
using Clock = std::chrono::steady_clock;

constexpr double kPaperCell = 0.75e-3;
constexpr double kFleetCell = 2.0e-3;
/// Span slots per thread ring for the traced run: enough that a traced
/// transient_day drops nothing (the 2^15 default does).
constexpr std::size_t kRingCapacity = std::size_t{1} << 17;
/// Pool size cap: the core count of the machine the reference numbers in
/// perf/README.md come from.
constexpr std::size_t kMaxThreads = 4;
/// Length of the set-up sampling window, split evenly over the CPUs.
constexpr double kSetupSeconds = 1.0;
/// The coupling reference runs the fixed point ten times longer than the
/// library default.
constexpr int kReferenceCouplingIterations = 40;

double seconds_since(Clock::time_point start) {
  return std::chrono::duration<double>(Clock::now() - start).count();
}

double cpu_seconds() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  const auto tv = [](const timeval& t) {
    return static_cast<double>(t.tv_sec) +
           static_cast<double>(t.tv_usec) * 1e-6;
  };
  return tv(usage.ru_utime) + tv(usage.ru_stime);
}

/// CPU time of the calling thread: wall minus this is time it spent blocked.
double thread_cpu_seconds() {
  timespec ts{};
  clock_gettime(CLOCK_THREAD_CPUTIME_ID, &ts);
  return static_cast<double>(ts.tv_sec) + static_cast<double>(ts.tv_nsec) * 1e-9;
}

double peak_rss_mb() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // KiB on Linux
}

std::string hex(std::uint64_t value) {
  std::ostringstream os;
  os << std::hex << std::setw(16) << std::setfill('0') << value;
  return os.str();
}

/// Minimal JSON object writer: keys in insertion order, doubles at full
/// precision.
class JsonObject {
 public:
  JsonObject& num(const std::string& key, double value) {
    std::ostringstream os;
    os << std::setprecision(17) << value;
    return raw(key, os.str());
  }
  JsonObject& str(const std::string& key, const std::string& value) {
    std::string quoted = "\"";
    for (const char c : value) {
      if (c == '"' || c == '\\') quoted += '\\';
      quoted += (c == '\n' || c == '\r') ? ' ' : c;
    }
    return raw(key, quoted + "\"");
  }
  JsonObject& boolean(const std::string& key, bool value) {
    return raw(key, value ? "true" : "false");
  }
  JsonObject& nums(const std::string& key, const std::vector<double>& values) {
    std::ostringstream os;
    os << std::setprecision(17) << '[';
    for (std::size_t i = 0; i < values.size(); ++i) {
      os << (i ? "," : "") << values[i];
    }
    os << ']';
    return raw(key, os.str());
  }
  JsonObject& objects(const std::string& key,
                      const std::vector<JsonObject>& values) {
    std::string list = "[";
    for (std::size_t i = 0; i < values.size(); ++i) {
      if (i) list += ',';
      list += values[i].text();
    }
    list += ']';
    return raw(key, list);
  }
  JsonObject& raw(const std::string& key, const std::string& value) {
    body_ += body_.empty() ? "\"" : ",\"";
    body_ += key;
    body_ += "\":";
    body_ += value;
    return *this;
  }
  [[nodiscard]] std::string text() const { return "{" + body_ + "}"; }

 private:
  std::string body_;
};

/// In-memory JSONL destination: folds every byte into an FNV-1a digest and
/// a byte count instead of keeping the text, so the sink costs formatting
/// but never disk or unbounded memory.
class DigestStreamBuf final : public std::streambuf {
 public:
  DigestStreamBuf() { setp(buffer_, buffer_ + sizeof(buffer_)); }
  DigestStreamBuf(const DigestStreamBuf&) = delete;
  DigestStreamBuf& operator=(const DigestStreamBuf&) = delete;

  [[nodiscard]] std::uint64_t digest() const noexcept { return digest_; }
  [[nodiscard]] std::uint64_t bytes() const noexcept { return bytes_; }

 protected:
  int_type overflow(int_type ch) override {
    fold();
    if (!traits_type::eq_int_type(ch, traits_type::eof())) {
      fold_byte(static_cast<unsigned char>(traits_type::to_char_type(ch)));
    }
    return traits_type::not_eof(ch);
  }
  int sync() override {
    fold();
    return 0;
  }

 private:
  void fold_byte(unsigned char byte) {
    util::fnv_byte(digest_, byte);
    ++bytes_;
  }
  void fold() {
    for (char* p = pbase(); p != pptr(); ++p) {
      fold_byte(static_cast<unsigned char>(*p));
    }
    setp(buffer_, buffer_ + sizeof(buffer_));
  }

  char buffer_[4096] = {};
  std::uint64_t digest_ = util::kFnvOffsetBasis;
  std::uint64_t bytes_ = 0;
};

/// Forwarding observer that times (and, when tracing, spans) every callback
/// of the observer it wraps: the datacenter layer's observer cost.
class TimedObserver final : public datacenter::FleetObserver {
 public:
  TimedObserver(datacenter::FleetObserver& inner, double& total_ms)
      : inner_(inner), total_ms_(total_ms) {}

  void on_run_begin(const datacenter::FleetConfig& config,
                    std::size_t stream_count,
                    double total_duration_s) override {
    timed([&] { inner_.on_run_begin(config, stream_count, total_duration_s); });
  }
  void on_interval(const datacenter::FleetInterval& interval,
                   const datacenter::IntervalCounters& counters) override {
    timed([&] { inner_.on_interval(interval, counters); });
  }
  void on_run_end(const datacenter::FleetRunSummary& summary) override {
    timed([&] { inner_.on_run_end(summary); });
  }

 private:
  template <typename Call>
  void timed(const Call& call) {
    util::TraceSpan span("perf.observer");
    const auto start = Clock::now();
    call();
    total_ms_ += seconds_since(start) * 1e3;
  }

  datacenter::FleetObserver& inner_;
  double& total_ms_;
};

/// One named pass/fail check, run outside the timed region.
struct Check {
  std::string name;
  bool ok = false;
  std::string detail;
};

/// Everything one timed run reports besides its wall and CPU time.
struct RunRecord {
  double wall_s = 0.0;
  double cpu_s = 0.0;
  double wait_s = 0.0;           ///< Main thread blocked (wall - thread CPU).
  std::size_t ops = 0;           ///< Solves, intervals or segments.
  bool ok = false;               ///< No exception and every check passed.
  std::string error;
  std::uint64_t digest = 0;      ///< Workload output digest (exactness).
  std::size_t solves = 0;        ///< Solve-cache misses during the run.
  std::size_t hits = 0;          ///< Solve-cache hits during the run.
  std::size_t pipeline_constructions = 0;
  std::size_t pipeline_reuses = 0;
  std::uint64_t steps = 0;       ///< Accepted transient steps.
  std::uint64_t rejected_steps = 0;
  std::size_t intervals = 0;     ///< Fleet intervals emitted.
  std::size_t segments = 0;      ///< Transient segments integrated.
  std::vector<double> advance_ms;  ///< Driver-timed advance() calls.
  double observer_ms = 0.0;
  double snapshot_save_ms = 0.0;
  double snapshot_bytes = 0.0;
  std::vector<Check> checks;
};

/// The accuracy probes: the library's default coupled solve against a
/// 40-iteration reference, both cold, on the proposed server.
struct CouplingProbe {
  std::unique_ptr<core::ServerModel> standard;
  std::unique_ptr<core::ServerModel> reference;
};

CouplingProbe make_probe(double cell_size_m) {
  core::ServerConfig config =
      core::server_config_for(core::Approach::kProposed, cell_size_m);
  config.reuse_thermal_state = false;
  CouplingProbe probe;
  probe.standard = std::make_unique<core::ServerModel>(config);
  config.coupling_iterations = kReferenceCouplingIterations;
  probe.reference = std::make_unique<core::ServerModel>(config);
  return probe;
}

/// Largest |TCASE| or |die max| difference over the fixed probe set.
double coupling_error_c(CouplingProbe& probe, std::size_t& solves) {
  const workload::Configuration point{4, 2, 3.2};  // 4 cores, 8 threads
  const std::vector<int> cores{1, 2, 3, 4};
  double worst = 0.0;
  for (const char* name : {"x264", "canneal", "blackscholes", "streamcluster"}) {
    const workload::BenchmarkProfile& bench = workload::find_benchmark(name);
    const core::SimulationResult a =
        probe.standard->simulate(bench, point, cores, power::CState::kPoll);
    const core::SimulationResult b =
        probe.reference->simulate(bench, point, cores, power::CState::kPoll);
    solves += 2;
    worst = std::max({worst, std::abs(a.tcase_c - b.tcase_c),
                      std::abs(a.die.max_c - b.die.max_c)});
  }
  return worst;
}

/// One workload: inputs built by `setup`, one cold run by `run`.
class Workload {
 public:
  /// `snapshot_path`: where each run saves the solve cache.
  explicit Workload(std::string snapshot_path)
      : snapshot_path_(std::move(snapshot_path)) {}
  virtual ~Workload() = default;
  Workload(const Workload&) = delete;
  Workload& operator=(const Workload&) = delete;

  [[nodiscard]] const std::string& snapshot_path() const {
    return snapshot_path_;
  }
  /// True when `run` saves the snapshot itself, inside the timed region;
  /// otherwise the save follows the timed region.
  [[nodiscard]] virtual bool saves_in_run() const { return false; }

  /// Build the inputs and the fleet from scratch.
  virtual void setup() = 0;
  /// Grid pitch of the workload's servers (the probe runs at it too).
  [[nodiscard]] virtual double cell_size_m() const = 0;
  /// Digest of the generated inputs (exact-counter bookkeeping key).
  [[nodiscard]] virtual std::uint64_t input_digest() const { return 0; }
  /// The timed region; fills the workload-specific fields of `record`.
  virtual void run(RunRecord& record) = 0;
  /// Checks on the finished run, outside the timed region.
  virtual void check(RunRecord& record) = 0;

 private:
  std::string snapshot_path_;
};

/// Save the process-global solve cache (timed, and spanned when tracing).
void save_snapshot(const std::string& path, RunRecord& record) {
  util::TraceSpan span("perf.snapshot_save");
  const auto start = Clock::now();
  core::SolveCache::global()->save(path);
  record.snapshot_save_ms = seconds_since(start) * 1e3;
}

/// Size the saved snapshot and check it reloads to the same contents.
void check_snapshot(const std::string& path, RunRecord& record) {
  namespace fs = std::filesystem;
  const std::string prefix = fs::path(path).filename().string();
  double bytes = 0.0;
  for (const fs::directory_entry& entry :
       fs::directory_iterator(fs::path(path).parent_path())) {
    if (entry.path().filename().string().rfind(prefix, 0) == 0) {
      bytes += static_cast<double>(entry.file_size());
    }
  }
  record.snapshot_bytes = bytes;
  core::SolveCache reloaded(core::SolveCache::global()->capacity());
  reloaded.load(path);
  const std::uint64_t saved = core::SolveCache::global()->content_digest();
  record.checks.push_back({"snapshot_round_trip",
                           reloaded.content_digest() == saved,
                           hex(reloaded.content_digest()) + " vs " +
                               hex(saved)});
}

class PaperBattery final : public Workload {
 public:
  using Workload::Workload;
  void setup() override { options_.cell_size_m = kPaperCell; }
  [[nodiscard]] double cell_size_m() const override { return kPaperCell; }

  void run(RunRecord& record) override {
    util::TraceSpan span("perf.table2");
    rows_ = core::run_table2(options_);
    record.ops = rows_.size() * workload::parsec_benchmarks().size();
  }

  void check(RunRecord& record) override {
    std::uint64_t digest = util::kFnvOffsetBasis;
    for (const core::Table2Row& row : rows_) {
      util::fnv_f64(digest, row.die_max_c);
      util::fnv_f64(digest, row.die_grad_c_per_mm);
      util::fnv_f64(digest, row.package_max_c);
      util::fnv_f64(digest, row.avg_power_w);
    }
    record.digest = digest;
    record.checks.push_back(
        {"table2_rows", rows_.size() == 9, std::to_string(rows_.size())});
    bool ordered = rows_.size() == 9;
    std::ostringstream detail;
    for (std::size_t q = 0; ordered && q < 3; ++q) {
      // Rows are approach-major: proposed, [8]+[27]+[9], [8]+[27]+[7].
      const core::Table2Row& proposed = rows_[q];
      const core::Table2Row& balancing = rows_[3 + q];
      const core::Table2Row& inlet_first = rows_[6 + q];
      const bool ok = proposed.die_max_c <= balancing.die_max_c + 1e-9 &&
                      balancing.die_max_c <= inlet_first.die_max_c + 1e-6;
      detail << "qos" << proposed.qos_factor << ":" << proposed.die_max_c
             << "<=" << balancing.die_max_c << "<=" << inlet_first.die_max_c
             << " ";
      ordered = ordered && ok;
    }
    record.checks.push_back({"table2_die_max_order", ordered, detail.str()});
    const bool soa_equal =
        rows_.size() == 9 &&
        std::abs(rows_[3].die_max_c - rows_[6].die_max_c) <= 1e-6;
    record.checks.push_back({"table2_soa_equal_at_1x", soa_equal, ""});
    record.checks.push_back({"table2_executed_solves",
                             record.solves == 117 && record.hits == 0,
                             std::to_string(record.solves) + " solves, " +
                                 std::to_string(record.hits) + " hits"});
  }

 private:
  core::ExperimentOptions options_;
  std::vector<core::Table2Row> rows_;
};

class FleetStream final : public Workload {
 public:
  FleetStream(std::string snapshot_path, std::uint64_t seed)
      : Workload(std::move(snapshot_path)), seed_(seed) {}
  [[nodiscard]] bool saves_in_run() const override { return true; }

  void setup() override {
    datacenter::WorkloadGenConfig gen = datacenter::diurnal_fleet_week(seed_, 128);
    gen.duration_s *= 4.0;  // four weeks on the same 30-minute grid
    streams_ = datacenter::WorkloadGenerator(gen).generate();
    config_ = datacenter::make_heterogeneous_fleet(16, 8, kFleetCell);
  }
  [[nodiscard]] double cell_size_m() const override { return kFleetCell; }
  [[nodiscard]] std::uint64_t input_digest() const override {
    return datacenter::streams_digest(streams_);
  }

  void run(RunRecord& record) override {
    datacenter::StreamingFleetEngine engine(config_, streams_);
    DigestStreamBuf jsonl_buf;
    std::ostream jsonl_stream(&jsonl_buf);
    datacenter::JsonlFleetSink jsonl(jsonl_stream);
    datacenter::FleetRollupReducer rollup(86400.0);  // daily windows
    TimedObserver timed_jsonl(jsonl, record.observer_ms);
    TimedObserver timed_rollup(rollup, record.observer_ms);
    engine.add_observer(timed_jsonl);
    engine.add_observer(timed_rollup);
    record.advance_ms.reserve(2048);
    while (true) {
      const auto start = Clock::now();
      bool emitted = false;
      {
        util::TraceSpan span("perf.advance");
        emitted = engine.advance();
      }
      if (!emitted) break;
      record.advance_ms.push_back(seconds_since(start) * 1e3);
    }
    save_snapshot(snapshot_path(), record);
    jsonl_stream.flush();
    record.intervals = engine.intervals_emitted();
    record.ops = record.intervals;
    record.digest = jsonl_buf.digest();
    jsonl_bytes_ = jsonl_buf.bytes();
    peak_held_ = engine.peak_held_intervals();
    summary_intervals_ = engine.summary().intervals;
    rollups_ = rollup.rollups().size();
  }

  void check(RunRecord& record) override {
    record.checks.push_back(
        {"bounded_memory",
         peak_held_ <= datacenter::StreamingFleetEngine::kMaxHeldIntervals,
         std::to_string(peak_held_) + " held"});
    record.checks.push_back({"summary_intervals",
                             summary_intervals_ == record.intervals &&
                                 record.intervals > 0 && jsonl_bytes_ > 0 &&
                                 rollups_ == 28,
                             std::to_string(summary_intervals_) + " intervals, " +
                                 std::to_string(rollups_) + " daily rollups"});
  }

 private:
  std::uint64_t seed_;
  datacenter::FleetConfig config_;
  std::vector<workload::WorkloadTrace> streams_;
  std::uint64_t jsonl_bytes_ = 0;
  std::size_t peak_held_ = 0;
  std::size_t summary_intervals_ = 0;
  std::size_t rollups_ = 0;
};

class TransientDay final : public Workload {
 public:
  using Workload::Workload;
  void setup() override {
    config_ = datacenter::make_heterogeneous_fleet(2, 2, kFleetCell);
    // Staggered day lengths (9600 s and 4800 s) so interval boundaries
    // interleave and segments chain through a non-trivial timeline.
    streams_.clear();
    for (std::size_t s = 0; s < 3; ++s) {
      streams_.push_back(workload::make_daily_trace(
          9600.0 / static_cast<double>(1 + s % 2)));
    }
  }
  [[nodiscard]] double cell_size_m() const override { return kFleetCell; }
  [[nodiscard]] std::uint64_t input_digest() const override {
    return datacenter::streams_digest(streams_);
  }

  void run(RunRecord& record) override {
    util::TraceSpan span("perf.transient_run");
    datacenter::TransientFleetEngine engine(config_, {});
    result_ = engine.run(streams_);
    record.segments = 0;
    for (const datacenter::TransientInterval& interval : result_.intervals) {
      record.segments += interval.jobs.size();
    }
    record.ops = record.segments;
    record.steps = result_.total_steps;
    record.rejected_steps = result_.total_rejected_steps;
    record.intervals = result_.steady.intervals.size();
  }

  void check(RunRecord& record) override {
    record.digest = datacenter::transient_digest(result_);
    record.checks.push_back({"transient_steps",
                             record.steps > 0 && record.segments > 0,
                             std::to_string(record.steps) + " steps"});
  }

 private:
  datacenter::FleetConfig config_;
  std::vector<workload::WorkloadTrace> streams_;
  datacenter::TransientFleetResult result_;
};

/// Set-up: the inputs, the fleet and the coupling probe's two servers,
/// rebuilt from scratch for kSetupSeconds in all (at least 5 times per
/// CPU), with the calling thread pinned to each CPU the process may use in
/// turn.  Returns the per-set-up seconds and leaves `probe` built.
///
/// A set-up takes 30 us to 7 ms on one thread.  On a shared host, load on
/// the host's cores slows single vCPUs by up to 1.6x for a second or more
/// at a time, so the median of a run flips between the two speeds.  Their
/// 10th percentile, over every CPU and the whole window, is the
/// uncontended set-up cost and repeats within a few percent.
std::vector<double> sample_setup(Workload& workload, CouplingProbe& probe) {
  cpu_set_t allowed;
  CPU_ZERO(&allowed);
  std::vector<int> cpus;
  if (sched_getaffinity(0, sizeof(allowed), &allowed) == 0) {
    for (int cpu = 0; cpu < CPU_SETSIZE; ++cpu) {
      if (CPU_ISSET(cpu, &allowed)) cpus.push_back(cpu);
    }
  }
  if (cpus.empty()) cpus.push_back(-1);  // affinity unknown: don't pin

  std::vector<double> setup_s;
  const double per_cpu_s = kSetupSeconds / static_cast<double>(cpus.size());
  for (const int cpu : cpus) {
    if (cpu >= 0) {
      cpu_set_t one;
      CPU_ZERO(&one);
      CPU_SET(cpu, &one);
      sched_setaffinity(0, sizeof(one), &one);
    }
    const auto window = Clock::now();
    for (int n = 0; n < 5 || seconds_since(window) < per_cpu_s; ++n) {
      const auto start = Clock::now();
      workload.setup();
      probe = make_probe(workload.cell_size_m());
      setup_s.push_back(seconds_since(start));
    }
  }
  if (cpus.front() >= 0) sched_setaffinity(0, sizeof(allowed), &allowed);
  return setup_s;
}

/// One cold run: cache and pipeline pool cleared, wall and CPU timed, then
/// the snapshot save (unless the run saved it) and the checks.  Exceptions
/// are recorded, never propagated.
RunRecord timed_run(Workload& workload) {
  RunRecord record;
  core::SolveCache::global()->clear();
  core::PipelinePool::global().clear();
  const core::PipelinePool::Stats pool_before =
      core::PipelinePool::global().stats();
  try {
    const double cpu_start = cpu_seconds();
    const double thread_start = thread_cpu_seconds();
    const auto start = Clock::now();
    {
      util::TraceSpan span("perf.run");  // the attribution root
      workload.run(record);
    }
    record.wall_s = seconds_since(start);
    record.cpu_s = cpu_seconds() - cpu_start;
    record.wait_s = record.wall_s - (thread_cpu_seconds() - thread_start);
    const core::SolveCache::Stats cache = core::SolveCache::global()->stats();
    const core::PipelinePool::Stats pool = core::PipelinePool::global().stats();
    record.solves = cache.misses;
    record.hits = cache.hits;
    record.pipeline_constructions =
        pool.constructions - pool_before.constructions;
    record.pipeline_reuses = pool.reuses - pool_before.reuses;
    if (!workload.saves_in_run()) save_snapshot(workload.snapshot_path(), record);
    check_snapshot(workload.snapshot_path(), record);
    workload.check(record);
    record.ok = std::all_of(record.checks.begin(), record.checks.end(),
                            [](const Check& c) { return c.ok; });
  } catch (const std::exception& error) {
    record.ok = false;
    record.error = error.what();
  }
  return record;
}

JsonObject to_json(const RunRecord& record) {
  std::vector<JsonObject> checks;
  for (const Check& c : record.checks) {
    checks.push_back(JsonObject().str("name", c.name).boolean("ok", c.ok).str(
        "detail", c.detail));
  }
  return JsonObject()
      .num("wall_s", record.wall_s)
      .num("cpu_s", record.cpu_s)
      .num("wait_s", record.wait_s)
      .num("ops", static_cast<double>(record.ops))
      .boolean("ok", record.ok)
      .str("error", record.error)
      .str("digest", hex(record.digest))
      .num("solves", static_cast<double>(record.solves))
      .num("hits", static_cast<double>(record.hits))
      .num("pipeline_constructions",
           static_cast<double>(record.pipeline_constructions))
      .num("pipeline_reuses", static_cast<double>(record.pipeline_reuses))
      .num("steps", static_cast<double>(record.steps))
      .num("rejected_steps", static_cast<double>(record.rejected_steps))
      .num("intervals", static_cast<double>(record.intervals))
      .num("segments", static_cast<double>(record.segments))
      .nums("advance_ms", record.advance_ms)
      .num("observer_ms", record.observer_ms)
      .num("snapshot_save_ms", record.snapshot_save_ms)
      .num("snapshot_bytes", record.snapshot_bytes)
      .objects("checks", checks);
}

struct Args {
  std::string workload;
  std::uint64_t seed = 42;
  double seconds = 10.0;
  bool trace = false;
  std::string out_dir = ".";
};

[[noreturn]] void usage() {
  std::cerr << "usage: tpcool_perf --workload paper_battery|fleet_stream|"
               "transient_day [--seed N] [--seconds S] [--trace 0|1] "
               "[--out-dir DIR]\n";
  std::exit(2);
}

Args parse_args(int argc, char** argv) {
  Args args;
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (i + 1 >= argc) usage();
    const std::string value = argv[++i];
    if (flag == "--workload") {
      args.workload = value;
    } else if (flag == "--seed") {
      args.seed = std::stoull(value);
    } else if (flag == "--seconds") {
      args.seconds = std::stod(value);
    } else if (flag == "--trace") {
      args.trace = value == "1";
    } else if (flag == "--out-dir") {
      args.out_dir = value;
    } else {
      usage();
    }
  }
  return args;
}

}  // namespace

int main(int argc, char** argv) {
  const Args args = parse_args(argc, argv);
  const std::size_t threads = std::clamp<std::size_t>(
      std::thread::hardware_concurrency(), 1, kMaxThreads);
  util::ThreadPool::set_global_thread_count(threads);

  const std::string snapshot = args.out_dir + "/" + args.workload + ".cache";
  std::unique_ptr<Workload> workload;
  if (args.workload == "paper_battery") {
    workload = std::make_unique<PaperBattery>(snapshot);
  } else if (args.workload == "fleet_stream") {
    workload = std::make_unique<FleetStream>(snapshot, args.seed);
  } else if (args.workload == "transient_day") {
    workload = std::make_unique<TransientDay>(snapshot);
  } else {
    usage();
  }

  JsonObject out;
  out.str("workload", args.workload)
      .num("threads", static_cast<double>(threads))
      .num("seed", static_cast<double>(args.seed));

  CouplingProbe probe;
  std::vector<double> setup_s = sample_setup(*workload, probe);
  std::sort(setup_s.begin(), setup_s.end());
  out.num("setup_p10_s", setup_s[setup_s.size() / 10])
      .num("setup_median_s", setup_s[setup_s.size() / 2])
      .num("setup_count", static_cast<double>(setup_s.size()))
      .str("input_digest", hex(workload->input_digest()));

  if (!args.trace) {
    std::size_t probe_solves = 0;
    double error_c = 0.0;
    std::string probe_error;
    try {
      error_c = coupling_error_c(probe, probe_solves);
    } catch (const std::exception& error) {
      probe_error = error.what();
    }
    out.num("coupling_error_c", error_c)
        .num("probe_solves", static_cast<double>(probe_solves))
        .str("probe_error", probe_error);
  }
  probe = {};

  // Peak RSS is read after the first timed run: later cold runs grow the
  // heap a little further each (freed cache entries fragment it), so a
  // later reading would depend on how many runs fit the window.
  std::vector<JsonObject> runs;
  double rss_mb = 0.0;
  if (!args.trace) {
    // Timed runs fill the window: another run starts only while the mean
    // run so far still fits in what is left of it.
    const auto window = Clock::now();
    double run_total_s = 0.0;
    do {
      const RunRecord record = timed_run(*workload);
      if (runs.empty()) rss_mb = peak_rss_mb();
      run_total_s += record.wall_s;
      runs.push_back(to_json(record));
    } while (seconds_since(window) +
                 run_total_s / static_cast<double>(runs.size()) <=
             args.seconds);
  } else {
    const RunRecord baseline = timed_run(*workload);
    rss_mb = peak_rss_mb();
    util::Telemetry& telemetry = util::Telemetry::instance();
    util::TelemetryConfig config;
    config.ring_capacity = kRingCapacity;
    telemetry.enable(config);
    telemetry.reset();
    const RunRecord traced = timed_run(*workload);
    // Stored in the trace so the attribution script can split the main
    // thread's self time into engine work and waiting on the pool.
    telemetry.counter("perf.main_wait_ms").add(traced.wait_s * 1e3);
    telemetry.disable();
    const std::string trace_path =
        args.out_dir + "/" + args.workload + ".trace.json";
    telemetry.export_chrome_trace(trace_path);
    out.str("trace_file", trace_path);
    runs.push_back(to_json(baseline));
    runs.push_back(to_json(traced));
  }
  out.objects("runs", runs).num("peak_rss_mb", rss_mb);
  std::cout << out.text() << std::endl;
  return 0;
}
