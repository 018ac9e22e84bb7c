/// \file transient_scaling.cpp
/// \brief Transient fleet-engine bench: time-to-solution of a 24-hour
///        diurnal load curve under adaptive time stepping, plus the
///        adaptive-vs-fixed step-count comparison, emitted as
///        machine-readable JSON.
///
/// Produces BENCH_transient.json (override with --json PATH) with one
/// entry per (case, thread count): best wall time over N repeats, the
/// solve-cache miss count ("iterations" = coupled solves actually
/// executed), hit count, and the transient step counts ("steps" accepted,
/// "rejected" retried).  Misses/hits/steps are deterministic and
/// machine-independent — the engine is bit-identical for any thread
/// count — so they gate algorithmic regressions (a lost cache hit, a
/// controller change that doubles the step count); times catch
/// constant-factor ones.
///
/// The headline case plays a full 24-hour diurnal curve (staggered
/// daily-trace streams) through the adaptive engine — the time-to-solution
/// number the fixed 0.5 s TraceRunner baseline cannot touch (172 800
/// steps/stream/day vs a few hundred adaptive ones).  The smooth-phase
/// pair runs the same 600 s plateau both ways and prints the step ratio.
///
/// Every case's transient digest (datacenter::transient_digest) is
/// compared across the swept thread counts — a mismatch is a determinism
/// bug and exits 1.  With --cache-file the bench also loads the snapshot,
/// warm-replays every case at the top thread count (`*_warm_*` rows: 0
/// misses on a rerun), saves the union back, and verifies the save→load
/// round trip, exactly like the experiment and datacenter benches.
///
/// Flags:
///   --fast           thread sweep {1, 2} (the CI config)
///   --threads N      highest thread count in the sweep (default: hardware)
///   --json PATH      output path (default BENCH_transient.json)
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
#include "tpcool/datacenter/transient.hpp"
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
  std::size_t solves = 0;    ///< Cache misses = coupled solves executed.
  std::size_t hits = 0;      ///< Cache hits = solves deduplicated away.
  std::uint64_t steps = 0;   ///< Accepted transient steps, fleet-wide.
  std::uint64_t rejected = 0;  ///< Steps retried at a smaller dt.
};

/// One transient scenario of the sweep.
struct TransientCase {
  std::string name;
  datacenter::FleetConfig config;
  datacenter::TransientEngineConfig engine;
  std::vector<workload::WorkloadTrace> streams;
};

double ms_since(Clock::time_point start) {
  return std::chrono::duration<double, std::milli>(Clock::now() - start)
      .count();
}

/// Best-of-N cold timing: each repeat starts from an empty cache and pool
/// so it measures real integrations, not replays.
CaseResult run_case(const TransientCase& scenario, std::size_t threads,
                    int repeats, std::uint64_t& digest_out) {
  util::ThreadPool::set_global_thread_count(threads);
  CaseResult result;
  result.name = scenario.name + "_t" + std::to_string(threads);
  result.threads = threads;
  std::cerr << "running " << result.name << "...\n";
  for (int rep = 0; rep < repeats; ++rep) {
    core::SolveCache::global()->clear();
    core::PipelinePool::global().clear();
    const auto start = Clock::now();
    datacenter::TransientFleetEngine engine(scenario.config, scenario.engine);
    const datacenter::TransientFleetResult run = engine.run(scenario.streams);
    const double elapsed = ms_since(start);
    const core::SolveCache::Stats stats = core::SolveCache::global()->stats();
    digest_out = datacenter::transient_digest(run);
    if (rep == 0 || elapsed < result.best_ms) {
      result.best_ms = elapsed;
      result.solves = stats.misses;
      result.hits = stats.hits;
      result.steps = run.total_steps;
      result.rejected = run.total_rejected_steps;
    }
  }
  return result;
}

/// One run WITHOUT clearing; stats are deltas, so a snapshot-warmed cache
/// shows up as 0 solves — steady fleet AND every chained segment replayed.
CaseResult run_warm_case(const TransientCase& scenario, std::size_t threads) {
  util::ThreadPool::set_global_thread_count(threads);
  const core::SolveCache::Stats before = core::SolveCache::global()->stats();
  const auto start = Clock::now();
  datacenter::TransientFleetEngine engine(scenario.config, scenario.engine);
  const datacenter::TransientFleetResult run = engine.run(scenario.streams);
  const double elapsed = ms_since(start);
  const core::SolveCache::Stats after = core::SolveCache::global()->stats();
  CaseResult result;
  result.name = scenario.name + "_warm_t" + std::to_string(threads);
  result.threads = threads;
  result.best_ms = elapsed;
  result.solves = after.misses - before.misses;
  result.hits = after.hits - before.hits;
  result.steps = run.total_steps;
  result.rejected = run.total_rejected_steps;
  return result;
}

void write_json(const std::string& path,
                const std::vector<CaseResult>& cases) {
  std::ofstream os(path);
  if (!os) {
    std::cerr << "cannot open " << path << " for writing\n";
    std::exit(1);
  }
  os << "{\n  \"schema\": \"tpcool-transient-bench-v1\",\n  \"cases\": [\n";
  for (std::size_t i = 0; i < cases.size(); ++i) {
    const CaseResult& c = cases[i];
    os << "    {\"name\": \"" << c.name << "\", \"threads\": " << c.threads
       << ", \"solve_ms\": " << c.best_ms << ", \"iterations\": " << c.solves
       << ", \"hits\": " << c.hits << ", \"steps\": " << c.steps
       << ", \"rejected\": " << c.rejected << "}"
       << (i + 1 < cases.size() ? "," : "") << "\n";
  }
  os << "  ]\n}\n";
}

}  // namespace

int main(int argc, char** argv) {
  bool fast = false;
  int repeats = 2;
  std::size_t max_threads = util::ThreadPool::default_thread_count();
  std::string json_path = "BENCH_transient.json";
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
      std::cerr << "usage: transient_scaling [--fast] [--threads N] "
                   "[--json PATH] [--repeats N] [--cache-file PATH] "
                   "[--trace-file PATH]\n";
      return 2;
    }
  }

  std::vector<std::size_t> thread_counts{1};
  const std::size_t cap = fast ? std::min<std::size_t>(2, max_threads)
                               : max_threads;
  for (std::size_t t = 2; t <= cap; t *= 2) thread_counts.push_back(t);

  // Coarse 2 mm cells — this bench measures the engine, not figure-quality
  // physics.
  constexpr double kCell = 2.0e-3;
  std::vector<TransientCase> scenarios;

  // Headline: a full 24-hour diurnal curve on a small heterogeneous fleet.
  // Stream scales stagger (86400 s and 43200 s days) so interval
  // boundaries interleave and segments chain through a non-trivial
  // timeline.  Adaptive stepping crosses the multi-hour plateaus in
  // max_dt-sized strides.
  {
    TransientCase day;
    day.name = "day24_fleet2_adaptive";
    day.config = datacenter::make_heterogeneous_fleet(2, 2, kCell);
    for (std::size_t s = 0; s < 3; ++s) {
      day.streams.push_back(workload::make_daily_trace(
          9600.0 / static_cast<double>(1 + s % 2)));
    }
    scenarios.push_back(std::move(day));
  }

  // The smooth-phase pair: the same 600 s x264 plateau under the adaptive
  // controller and under the fixed 0.5 s TraceRunner-style baseline.
  {
    TransientCase smooth;
    smooth.name = "smooth600_adaptive";
    smooth.config = datacenter::make_heterogeneous_fleet(2, 1, kCell);
    smooth.streams = {workload::WorkloadTrace({{"x264", {2.0}, 600.0}})};
    scenarios.push_back(smooth);
    smooth.name = "smooth600_fixed500ms";
    smooth.engine.fixed_dt_s = 0.5;
    scenarios.push_back(std::move(smooth));
  }

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
    for (const TransientCase& scenario : scenarios) {
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

  // Cold, baseline-gated sweep, with the cross-thread bit-identity check:
  // every case's transient digest must match at every swept thread count.
  std::map<std::string, std::uint64_t> digests;
  std::map<std::string, CaseResult> by_case;
  bool digest_ok = true;
  for (const std::size_t threads : thread_counts) {
    for (const TransientCase& scenario : scenarios) {
      std::uint64_t digest = 0;
      cases.push_back(run_case(scenario, threads, repeats, digest));
      by_case[scenario.name] = cases.back();
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

  write_json(json_path, cases);

  util::TablePrinter table({"case", "threads", "best ms", "solves", "hits",
                            "steps", "rejected"});
  for (const CaseResult& c : cases) {
    table.add_row({c.name, std::to_string(c.threads),
                   util::TablePrinter::fmt(c.best_ms, 1),
                   std::to_string(c.solves), std::to_string(c.hits),
                   std::to_string(c.steps), std::to_string(c.rejected)});
  }
  table.print(std::cout);
  std::cout << "\nwrote " << json_path << "\n";
  if (!digest_ok) return 1;
  std::cout << "transient results bit-identical across thread counts {";
  for (std::size_t i = 0; i < thread_counts.size(); ++i) {
    std::cout << (i ? ", " : "") << thread_counts[i];
  }
  std::cout << "}\n";

  // The headline comparison: accepted + rejected trials on the same
  // smooth 600 s phase, adaptive vs the fixed 0.5 s baseline.
  const CaseResult& adaptive = by_case.at("smooth600_adaptive");
  const CaseResult& fixed = by_case.at("smooth600_fixed500ms");
  const std::uint64_t adaptive_trials = adaptive.steps + adaptive.rejected;
  std::cout << "smooth 600 s phase: adaptive " << adaptive_trials
            << " trials vs fixed " << fixed.steps << " steps ("
            << util::TablePrinter::fmt(
                   static_cast<double>(fixed.steps) /
                       static_cast<double>(adaptive_trials),
                   1)
            << "x fewer)\n";
  if (adaptive_trials >= fixed.steps) {
    std::cerr << "ADAPTIVE REGRESSION: the adaptive controller took as many "
                 "trials as the fixed baseline on a smooth phase\n";
    return 1;
  }
  return 0;
}
