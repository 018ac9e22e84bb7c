/// \file control_scaling.cpp
/// \brief Closed-loop fleet-control bench: wall time of the canonical
///        PUE-tracking day (datacenter::make_pue_tracking_day) with and
///        without the controller in the loop, vs thread count, emitted as
///        machine-readable JSON.
///
/// Produces BENCH_control.json (override with --json PATH) with one entry
/// per (case, thread count): best wall time over N repeats, the
/// solve-cache miss count ("iterations" = coupled solves actually
/// executed), the interval count ("steps"), and the hit count.  Cases:
///   openday4  the diurnal day, open loop (the controller-off reference)
///   ctrlday4  the same day with the FleetController tracking its PUE
///             target — the controller's quantized biases add a bounded
///             set of extra operating points, visible as extra solves.
///
/// Hard checks (any failure exits 1):
///  - every case's digest matches across the swept thread counts — the
///    closed loop is bit-identical for any parallelism;
///  - the acceptance band: over the final 12 h of the day the controlled
///    fleet PUE stays within ±2% of the controller target while the open
///    loop sits outside that band (the PR 8 tentpole claim, also pinned
///    by tests/control_test.cpp).
///
/// With --cache-file the bench joins the shared snapshot chain: load (if
/// present), warm-replay both cases at the top thread count (`*_warm_*`
/// rows), save the union, verify the save→load round trip.  A warm rerun
/// replays every solve from the snapshot: 0 misses.
///
/// Flags:
///   --fast           thread sweep {1, 2} (the CI config)
///   --threads N      highest thread count in the sweep (default: hardware)
///   --json PATH      output path (default BENCH_control.json)
///   --repeats N      timing repeats per case (default 2, best-of)
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
#include "tpcool/datacenter/control.hpp"
#include "tpcool/datacenter/fleet.hpp"
#include "tpcool/datacenter/streaming.hpp"
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
  std::size_t solves = 0;  ///< Cache misses = coupled solves executed.
  std::size_t hits = 0;    ///< Cache hits = solves deduplicated away.
  std::size_t steps = 0;   ///< Intervals the engine emitted.
};

struct ControlCase {
  std::string name;        ///< "openday4" / "ctrlday4".
  bool controlled = false;
  int repeats = 1;
};

double ms_since(Clock::time_point start) {
  return std::chrono::duration<double, std::milli>(Clock::now() - start)
      .count();
}

/// One full run of the scenario; returns the aggregated result (the
/// digest and the band check both read it).
datacenter::FleetResult run_scenario(const datacenter::ControlScenario& day,
                                     bool controlled) {
  datacenter::StreamingFleetEngine engine(day.fleet, day.streams);
  datacenter::FleetResultAggregator aggregator;
  engine.add_observer(aggregator);
  if (controlled) {
    datacenter::FleetController controller(day.controller);
    engine.set_controller(controller);
    engine.run();
    return aggregator.take();
  }
  engine.run();
  return aggregator.take();
}

/// The acceptance band over the final 12 h: controlled inside ±2% of
/// target, open loop outside.  Returns false (and prints) on violation.
bool check_band(const datacenter::ControlScenario& day,
                const datacenter::FleetResult& open,
                const datacenter::FleetResult& ctrl) {
  const double low = 0.98 * day.controller.target;
  const double high = 1.02 * day.controller.target;
  constexpr double kFinalHalfStartS = 12.0 * 3600.0;
  bool ok = true;
  for (std::size_t i = 0; i < ctrl.intervals.size(); ++i) {
    if (ctrl.intervals[i].start_s < kFinalHalfStartS) continue;
    if (ctrl.intervals[i].pue < low || ctrl.intervals[i].pue > high) {
      std::cerr << "PUE-BAND FAILURE: controlled interval " << i << " at "
                << ctrl.intervals[i].pue << " outside [" << low << ", "
                << high << "]\n";
      ok = false;
    }
    if (open.intervals[i].pue >= low && open.intervals[i].pue <= high) {
      std::cerr << "PUE-BAND FAILURE: open-loop interval " << i << " at "
                << open.intervals[i].pue
                << " already inside the band — the controller is not "
                   "demonstrating anything\n";
      ok = false;
    }
  }
  return ok;
}

/// Best-of-N cold timing: each repeat starts from an empty cache and pool
/// so it measures real solves.
CaseResult run_case(const datacenter::ControlScenario& day,
                    const ControlCase& scenario, std::size_t threads,
                    std::uint64_t& digest_out,
                    datacenter::FleetResult& result_out) {
  util::ThreadPool::set_global_thread_count(threads);
  CaseResult result{scenario.name + "_t" + std::to_string(threads), threads,
                    0.0, 0, 0, 0};
  for (int rep = 0; rep < scenario.repeats; ++rep) {
    core::SolveCache::global()->clear();
    core::PipelinePool::global().clear();
    const auto start = Clock::now();
    datacenter::FleetResult run = run_scenario(day, scenario.controlled);
    const double elapsed = ms_since(start);
    const core::SolveCache::Stats stats = core::SolveCache::global()->stats();
    if (rep == 0 || elapsed < result.best_ms) {
      result.best_ms = elapsed;
      result.solves = stats.misses;
      result.hits = stats.hits;
      result.steps = run.intervals.size();
      digest_out = datacenter::fleet_digest(run);
      result_out = std::move(run);
    }
  }
  return result;
}

/// One run WITHOUT clearing; stats are deltas, so a snapshot-warmed cache
/// shows up as 0 solves.
CaseResult run_warm_case(const datacenter::ControlScenario& day,
                         const ControlCase& scenario, std::size_t threads) {
  util::ThreadPool::set_global_thread_count(threads);
  const core::SolveCache::Stats before = core::SolveCache::global()->stats();
  const auto start = Clock::now();
  const datacenter::FleetResult run = run_scenario(day, scenario.controlled);
  CaseResult result{scenario.name + "_warm_t" + std::to_string(threads),
                    threads, ms_since(start), 0, 0, run.intervals.size()};
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
  os << "{\n  \"schema\": \"tpcool-control-bench-v1\",\n  \"cases\": [\n";
  for (std::size_t i = 0; i < cases.size(); ++i) {
    const CaseResult& c = cases[i];
    os << "    {\"name\": \"" << c.name << "\", \"threads\": " << c.threads
       << ", \"solve_ms\": " << c.best_ms << ", \"iterations\": " << c.solves
       << ", \"steps\": " << c.steps << ", \"hits\": " << c.hits << "}"
       << (i + 1 < cases.size() ? "," : "") << "\n";
  }
  os << "  ]\n}\n";
}

}  // namespace

int main(int argc, char** argv) {
  bool fast = false;
  int repeats = 2;
  std::size_t max_threads = util::ThreadPool::default_thread_count();
  std::string json_path = "BENCH_control.json";
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
      std::cerr << "usage: control_scaling [--fast] [--threads N] "
                   "[--json PATH] [--repeats N] [--cache-file PATH] "
                   "[--trace-file PATH]\n";
      return 2;
    }
  }

  std::vector<std::size_t> thread_counts{1};
  const std::size_t cap = fast ? std::min<std::size_t>(2, max_threads)
                               : max_threads;
  for (std::size_t t = 2; t <= cap; t *= 2) thread_counts.push_back(t);

  // Coarse 2 mm cells — this bench measures the control loop, not
  // figure-quality physics.  Seed 42 is fixed: the scenario is part of
  // the baseline (and the same one the example and tests use).
  constexpr double kCell = 2.0e-3;
  const datacenter::ControlScenario day =
      datacenter::make_pue_tracking_day(42, 4, kCell);
  const std::vector<ControlCase> scenarios = {
      {"openday4", false, repeats},
      {"ctrlday4", true, repeats},
  };

  std::vector<CaseResult> cases;

  // Snapshot phase: load (if present), warm-replay every case at the top
  // thread count without clearing, save the union, verify round-trip.
  if (!cache_file.empty()) {
    bool loaded = false;
    try {
      core::SolveCache::global()->load(cache_file);
      loaded = true;
    } catch (const core::SnapshotError& error) {
      std::cerr << "starting cold (" << error.what() << ")\n";
    }
    for (const ControlCase& scenario : scenarios) {
      cases.push_back(run_warm_case(day, scenario, cap));
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

  // Cold, baseline-gated sweep, with the cross-thread bit-identity check
  // and the acceptance band on the top-thread-count results.
  std::map<std::string, std::uint64_t> digests;
  bool digest_ok = true;
  datacenter::FleetResult open_result;
  datacenter::FleetResult ctrl_result;
  for (const std::size_t threads : thread_counts) {
    for (const ControlCase& scenario : scenarios) {
      std::uint64_t digest = 0;
      datacenter::FleetResult result;
      cases.push_back(run_case(day, scenario, threads, digest, result));
      const auto [it, inserted] = digests.emplace(scenario.name, digest);
      if (!inserted && it->second != digest) {
        std::cerr << "DETERMINISM FAILURE: " << scenario.name << " at "
                  << threads << " threads diverges from the "
                  << thread_counts.front() << "-thread result\n";
        digest_ok = false;
      }
      (scenario.controlled ? ctrl_result : open_result) = std::move(result);
    }
  }
  util::ThreadPool::set_global_thread_count(0);

  const bool band_ok = check_band(day, open_result, ctrl_result);

  write_json(json_path, cases);

  util::TablePrinter table(
      {"case", "threads", "best ms", "solves", "hits", "intervals"});
  for (const CaseResult& c : cases) {
    table.add_row({c.name, std::to_string(c.threads),
                   util::TablePrinter::fmt(c.best_ms, 1),
                   std::to_string(c.solves), std::to_string(c.hits),
                   std::to_string(c.steps)});
  }
  table.print(std::cout);
  std::cout << "\nwrote " << json_path << "\n";
  if (!digest_ok || !band_ok) return 1;
  std::cout << "controlled day bit-identical across thread counts {";
  for (std::size_t i = 0; i < thread_counts.size(); ++i) {
    std::cout << (i ? ", " : "") << thread_counts[i];
  }
  std::cout << "}; final-12h PUE within +/-2% of target "
            << util::TablePrinter::fmt(day.controller.target, 3)
            << " (open loop outside)\n";
  return 0;
}
