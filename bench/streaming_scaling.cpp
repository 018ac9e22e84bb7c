/// \file streaming_scaling.cpp
/// \brief Streaming fleet-engine bench: wall time of generated-scenario
///        streaming runs vs thread count, including the 7-day
///        bounded-memory demonstration, emitted as machine-readable JSON.
///
/// Produces BENCH_streaming.json (override with --json PATH) with one
/// entry per (scenario, thread count): best wall time over N repeats, the
/// solve-cache miss count ("iterations" = coupled solves actually
/// executed), the interval count ("steps" = intervals the engine emitted),
/// the hit count, and the engine's peak held-interval count.
///
/// Two generated scenarios (datacenter::WorkloadGenerator, fixed seeds):
///   day4   one diurnal day, 4 streams on a 15-minute grid — the thread
///          sweep workhorse, aggregated so its digest is the batch digest.
///   week4  seven diurnal days, 4 streams on a 30-minute grid — streamed
///          through O(1) observers only (a digest and a daily rollup), the
///          unbounded-trace-length demonstration.
///
/// Hard checks (any failure exits 1):
///  - every run's digest matches across the swept thread counts;
///  - every run's peak_held_intervals() stays within
///    StreamingFleetEngine::kMaxHeldIntervals — the week row holds at most
///    one interval in memory regardless of its 300+ interval timeline.
///
/// With --cache-file the bench joins the shared snapshot chain: load (if
/// present), warm-replay both scenarios at the top thread count
/// (`*_warm_*` rows), save the union, verify the save→load round trip.
///
/// Flags:
///   --fast           thread sweep {1, 2} (the CI config)
///   --threads N      highest thread count in the sweep (default: hardware)
///   --json PATH      output path (default BENCH_streaming.json)
///   --repeats N      timing repeats per day case (default 2, best-of;
///                    the week case always runs once per thread count)
///   --cache-file P   solve-cache snapshot: load, warm-replay, save, verify
///   --trace-file P   telemetry: Chrome trace + metrics JSON at exit (TRACING.md)

#include <chrono>
#include <cstdint>
#include <cstdlib>
#include <fstream>
#include <iostream>
#include <map>
#include <string>
#include <vector>

#include "tpcool/core/pipeline_pool.hpp"
#include "tpcool/core/solve_cache.hpp"
#include "tpcool/datacenter/fleet.hpp"
#include "tpcool/datacenter/streaming.hpp"
#include "tpcool/datacenter/workload_gen.hpp"
#include "tpcool/util/fnv.hpp"
#include "tpcool/util/table.hpp"
#include "tpcool/util/telemetry.hpp"
#include "tpcool/util/thread_pool.hpp"

namespace {

using namespace tpcool;
using Clock = std::chrono::steady_clock;

struct CaseResult {
  std::string name;
  std::size_t threads = 0;
  double best_ms = 0.0;
  std::size_t solves = 0;     ///< Cache misses = coupled solves executed.
  std::size_t hits = 0;       ///< Cache hits = solves deduplicated away.
  std::size_t steps = 0;      ///< Intervals the engine emitted.
  std::size_t peak_held = 0;  ///< Peak FleetIntervals alive in the engine.
};

/// One generated scenario of the sweep.
struct StreamCase {
  std::string name;  ///< e.g. "day4".
  datacenter::FleetConfig config;
  std::vector<workload::WorkloadTrace> streams;
  int repeats = 1;
};

double ms_since(Clock::time_point start) {
  return std::chrono::duration<double, std::milli>(Clock::now() - start)
      .count();
}

/// O(1)-memory digest observer: folds every digest-covered interval field
/// in arrival order, then the run totals — a streaming analogue of
/// datacenter::fleet_digest (same fields, interval count folded at the end
/// instead of first, since a stream cannot know its length up front).
class DigestObserver final : public datacenter::FleetObserver {
 public:
  void on_interval(const datacenter::FleetInterval& interval,
                   const datacenter::IntervalCounters& counters) override {
    (void)counters;
    util::fnv_f64(digest_, interval.start_s);
    util::fnv_f64(digest_, interval.duration_s);
    util::fnv_f64(digest_, interval.it_power_w);
    util::fnv_f64(digest_, interval.chiller_power_w);
    util::fnv_f64(digest_, interval.pue);
    util::fnv_u64(digest_, interval.qos_violations);
    for (const datacenter::JobOutcome& job : interval.jobs) {
      util::fnv_u64(digest_, job.stream);
      util::fnv_u64(digest_, job.rack);
      util::fnv_f64(digest_, job.package_power_w);
      util::fnv_f64(digest_, job.tcase_c);
    }
    for (const datacenter::RackInterval& rack : interval.racks) {
      util::fnv_f64(digest_, rack.it_power_w);
      util::fnv_f64(digest_, rack.cooling.supply_temp_c);
    }
  }
  void on_run_end(const datacenter::FleetRunSummary& summary) override {
    util::fnv_u64(digest_, summary.intervals);
    util::fnv_f64(digest_, summary.total_it_energy_j);
    util::fnv_f64(digest_, summary.total_facility_energy_j);
    util::fnv_f64(digest_, summary.avg_pue);
    util::fnv_u64(digest_, summary.qos_violations);
  }
  [[nodiscard]] std::uint64_t digest() const noexcept { return digest_; }

 private:
  std::uint64_t digest_ = util::kFnvOffsetBasis;
};

/// One streaming run with O(1) observers (digest + daily rollup).  Returns
/// the interval digest; fills steps/peak_held from the engine.
std::uint64_t run_streaming(const StreamCase& scenario, CaseResult& result) {
  datacenter::StreamingFleetEngine engine(scenario.config, scenario.streams);
  DigestObserver digest;
  datacenter::FleetRollupReducer rollup(86400.0);  // daily windows
  engine.add_observer(digest);
  engine.add_observer(rollup);
  engine.run();
  result.steps = engine.intervals_emitted();
  result.peak_held = engine.peak_held_intervals();
  return digest.digest();
}

/// Best-of-N cold timing: each repeat starts from an empty cache and pool
/// so it measures real solves.
CaseResult run_case(const StreamCase& scenario, std::size_t threads,
                    std::uint64_t& digest_out) {
  util::ThreadPool::set_global_thread_count(threads);
  CaseResult result{scenario.name + "_t" + std::to_string(threads), threads,
                    0.0, 0, 0, 0, 0};
  for (int rep = 0; rep < scenario.repeats; ++rep) {
    core::SolveCache::global()->clear();
    core::PipelinePool::global().clear();
    const auto start = Clock::now();
    CaseResult run = result;
    digest_out = run_streaming(scenario, run);
    const double elapsed = ms_since(start);
    const core::SolveCache::Stats stats = core::SolveCache::global()->stats();
    if (rep == 0 || elapsed < result.best_ms) {
      result.best_ms = elapsed;
      result.solves = stats.misses;
      result.hits = stats.hits;
      result.steps = run.steps;
      result.peak_held = run.peak_held;
    }
  }
  return result;
}

/// One run WITHOUT clearing; stats are deltas, so a snapshot-warmed cache
/// shows up as 0 solves.
CaseResult run_warm_case(const StreamCase& scenario, std::size_t threads) {
  util::ThreadPool::set_global_thread_count(threads);
  const core::SolveCache::Stats before = core::SolveCache::global()->stats();
  const auto start = Clock::now();
  CaseResult result{scenario.name + "_warm_t" + std::to_string(threads),
                    threads, 0.0, 0, 0, 0, 0};
  (void)run_streaming(scenario, result);
  result.best_ms = ms_since(start);
  const core::SolveCache::Stats after = core::SolveCache::global()->stats();
  result.solves = after.misses - before.misses;
  result.hits = after.hits - before.hits;
  return result;
}

void write_json(const std::string& path,
                const std::vector<CaseResult>& cases) {
  std::ofstream os(path);
  if (!os) {
    std::cerr << "cannot open " << path << " for writing\n";
    std::exit(1);
  }
  os << "{\n  \"schema\": \"tpcool-streaming-bench-v1\",\n  \"cases\": [\n";
  for (std::size_t i = 0; i < cases.size(); ++i) {
    const CaseResult& c = cases[i];
    os << "    {\"name\": \"" << c.name << "\", \"threads\": " << c.threads
       << ", \"solve_ms\": " << c.best_ms << ", \"iterations\": " << c.solves
       << ", \"steps\": " << c.steps << ", \"hits\": " << c.hits
       << ", \"peak_held\": " << c.peak_held << "}"
       << (i + 1 < cases.size() ? "," : "") << "\n";
  }
  os << "  ]\n}\n";
}

}  // namespace

int main(int argc, char** argv) {
  bool fast = false;
  int repeats = 2;
  std::size_t max_threads = util::ThreadPool::default_thread_count();
  std::string json_path = "BENCH_streaming.json";
  std::string cache_file;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg == "--fast") {
      fast = true;
    } else if (arg == "--json" && i + 1 < argc) {
      json_path = argv[++i];
    } else if (arg == "--repeats" && i + 1 < argc) {
      repeats = std::max(1, std::atoi(argv[++i]));
    } else if (arg == "--threads" && i + 1 < argc) {
      max_threads = static_cast<std::size_t>(
          std::max(1, std::atoi(argv[++i])));
    } else if (arg == "--cache-file" && i + 1 < argc) {
      cache_file = argv[++i];
    } else if (arg == "--trace-file" && i + 1 < argc) {
      util::Telemetry::arm_process_trace(argv[++i]);
    } else {
      std::cerr << "usage: streaming_scaling [--fast] [--threads N] "
                   "[--json PATH] [--repeats N] [--cache-file PATH] "
                   "[--trace-file PATH]\n";
      return 2;
    }
  }

  std::vector<std::size_t> thread_counts{1};
  const std::size_t cap = fast ? std::min<std::size_t>(2, max_threads)
                               : max_threads;
  for (std::size_t t = 2; t <= cap; t *= 2) thread_counts.push_back(t);

  // Coarse 2 mm cells — this bench measures the streaming engine, not
  // figure-quality physics.  Seeds are fixed: the scenarios are part of
  // the baseline.
  constexpr double kCell = 2.0e-3;
  std::vector<StreamCase> scenarios;
  {
    StreamCase day;
    day.name = "day4";
    day.config = datacenter::make_heterogeneous_fleet(2, 2, kCell);
    day.streams =
        datacenter::WorkloadGenerator(datacenter::diurnal_fleet_day(42, 4))
            .generate();
    day.repeats = repeats;
    scenarios.push_back(std::move(day));
  }
  {
    StreamCase week;
    week.name = "week4";
    week.config = datacenter::make_heterogeneous_fleet(2, 2, kCell);
    week.streams =
        datacenter::WorkloadGenerator(datacenter::diurnal_fleet_week(42, 4))
            .generate();
    week.repeats = 1;  // 300+ intervals: once per thread count is plenty
    scenarios.push_back(std::move(week));
  }

  std::vector<CaseResult> cases;

  // Snapshot phase: load (if present), warm-replay every scenario at the
  // top thread count without clearing, save the union, verify round-trip.
  if (!cache_file.empty()) {
    bool loaded = false;
    try {
      core::SolveCache::global()->load(cache_file);
      loaded = true;
    } catch (const core::SnapshotError& error) {
      std::cerr << "starting cold (" << error.what() << ")\n";
    }
    for (const StreamCase& scenario : scenarios) {
      cases.push_back(run_warm_case(scenario, cap));
    }
    core::SolveCache::global()->save(cache_file);
    const std::uint64_t saved_digest =
        core::SolveCache::global()->content_digest();
    core::SolveCache reloaded(core::SolveCache::global()->capacity());
    reloaded.load(cache_file);
    if (reloaded.content_digest() != saved_digest) {
      std::cerr << "solve-cache snapshot round-trip FAILED: digest mismatch "
                   "after save+load of "
                << cache_file << "\n";
      return 1;
    }
    std::cout << "solve-cache snapshot " << cache_file << ": "
              << (loaded ? "loaded warm, " : "started cold, ") << "saved "
              << core::SolveCache::global()->stats().size
              << " entries, round-trip OK\n";
  }

  // Cold, baseline-gated sweep, with the cross-thread bit-identity check.
  std::map<std::string, std::uint64_t> digests;
  bool digest_ok = true;
  for (const std::size_t threads : thread_counts) {
    for (const StreamCase& scenario : scenarios) {
      std::uint64_t digest = 0;
      cases.push_back(run_case(scenario, threads, digest));
      const auto [it, inserted] = digests.emplace(scenario.name, digest);
      if (!inserted && it->second != digest) {
        std::cerr << "DETERMINISM FAILURE: " << scenario.name << " at "
                  << threads << " threads diverges from the "
                  << thread_counts.front() << "-thread result\n";
        digest_ok = false;
      }
    }
  }
  util::ThreadPool::set_global_thread_count(0);

  // The bounded-memory contract: every run (including the 7-day trace, 300+
  // intervals) held at most kMaxHeldIntervals FleetIntervals at once.
  bool memory_ok = true;
  for (const CaseResult& c : cases) {
    if (c.peak_held > datacenter::StreamingFleetEngine::kMaxHeldIntervals) {
      std::cerr << "BOUNDED-MEMORY FAILURE: " << c.name << " held "
                << c.peak_held << " intervals (limit "
                << datacenter::StreamingFleetEngine::kMaxHeldIntervals
                << ")\n";
      memory_ok = false;
    }
  }

  write_json(json_path, cases);

  util::TablePrinter table({"case", "threads", "best ms", "solves", "hits",
                            "intervals", "peak held"});
  for (const CaseResult& c : cases) {
    table.add_row({c.name, std::to_string(c.threads),
                   util::TablePrinter::fmt(c.best_ms, 1),
                   std::to_string(c.solves), std::to_string(c.hits),
                   std::to_string(c.steps), std::to_string(c.peak_held)});
  }
  table.print(std::cout);
  std::cout << "\nwrote " << json_path << "\n";
  if (!digest_ok || !memory_ok) return 1;
  std::cout << "streaming runs bit-identical across thread counts {";
  for (std::size_t i = 0; i < thread_counts.size(); ++i) {
    std::cout << (i ? ", " : "") << thread_counts[i];
  }
  std::cout << "} at <= "
            << datacenter::StreamingFleetEngine::kMaxHeldIntervals
            << " held interval(s)\n";
  return 0;
}
