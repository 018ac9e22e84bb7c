/// \file datacenter_scaling.cpp
/// \brief Fleet-simulation scaling bench: wall time of trace-driven
///        multi-rack sweeps vs thread count, across fleet sizes and
///        placement policies, emitted as machine-readable JSON.
///
/// Produces BENCH_datacenter.json (override with --json PATH) with one
/// entry per (fleet, policy, thread count): best wall time over N repeats,
/// the solve-cache miss count ("iterations" = coupled solves actually
/// executed) and hit count, plus the PipelinePool construction/reuse
/// deltas.  Misses/hits are deterministic and machine-independent (the
/// fleet runs the same solves at any thread count), so they gate
/// algorithmic regressions; pool constructions depend on chunk timing at
/// >1 thread and are informational.
///
/// Every fleet sweep's result digest (datacenter::fleet_digest) is
/// compared across the swept thread counts — a mismatch is a determinism
/// bug and exits 1.  With --cache-file the bench also loads the snapshot,
/// warm-replays every fleet at the top thread count (`*_warm_*` rows: 0
/// misses on a rerun), saves the union back, and verifies the save→load
/// round trip digest for digest, exactly like experiment_scaling.
///
/// Flags:
///   --fast           thread sweep {1, 2} (the CI config)
///   --threads N      highest thread count in the sweep (default: hardware)
///   --json PATH      output path (default BENCH_datacenter.json)
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
#include "tpcool/datacenter/fleet.hpp"
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
  std::size_t solves = 0;         ///< Cache misses = coupled solves executed.
  std::size_t hits = 0;           ///< Cache hits = solves deduplicated away.
  std::size_t constructions = 0;  ///< Pipelines built fresh (informational).
  std::size_t reuses = 0;         ///< Pool checkouts served warm.
};

/// One fleet scenario of the sweep.
struct FleetCase {
  std::string name;            ///< e.g. "fleet16_round-robin".
  datacenter::FleetConfig config;
  std::vector<workload::WorkloadTrace> streams;
};

double ms_since(Clock::time_point start) {
  return std::chrono::duration<double, std::milli>(Clock::now() - start)
      .count();
}

/// The workload arrival streams: one per rack slot group, alternating the
/// daily and stress patterns with staggered scales so phase boundaries
/// interleave into a non-trivial fleet timeline.  Deterministic.
std::vector<workload::WorkloadTrace> make_streams(std::size_t count) {
  std::vector<workload::WorkloadTrace> streams;
  streams.reserve(count);
  for (std::size_t s = 0; s < count; ++s) {
    const double scale = 1.0 + 0.5 * static_cast<double>(s % 4);
    streams.push_back(s % 2 == 0 ? workload::make_daily_trace(scale)
                                 : workload::make_stress_trace(scale));
  }
  return streams;
}

/// Best-of-N cold timing: each repeat starts from an empty cache and pool
/// so it measures real solves and real pipeline constructions.
CaseResult run_case(const FleetCase& fleet, std::size_t threads, int repeats,
                    std::uint64_t& digest_out) {
  util::ThreadPool::set_global_thread_count(threads);
  CaseResult result{fleet.name + "_t" + std::to_string(threads), threads,
                    0.0, 0, 0, 0, 0};
  for (int rep = 0; rep < repeats; ++rep) {
    core::SolveCache::global()->clear();
    core::PipelinePool::global().clear();
    const core::PipelinePool::Stats pool_before =
        core::PipelinePool::global().stats();
    const auto start = Clock::now();
    datacenter::FleetModel model(fleet.config);
    const datacenter::FleetResult run = model.run(fleet.streams);
    const double elapsed = ms_since(start);
    const core::SolveCache::Stats stats = core::SolveCache::global()->stats();
    const core::PipelinePool::Stats pool_after =
        core::PipelinePool::global().stats();
    digest_out = datacenter::fleet_digest(run);
    if (rep == 0 || elapsed < result.best_ms) {
      result.best_ms = elapsed;
      result.solves = stats.misses;
      result.hits = stats.hits;
      result.constructions =
          pool_after.constructions - pool_before.constructions;
      result.reuses = pool_after.reuses - pool_before.reuses;
    }
  }
  return result;
}

/// One run WITHOUT clearing; stats are deltas, so a snapshot-warmed cache
/// shows up as 0 solves.
CaseResult run_warm_case(const FleetCase& fleet, std::size_t threads) {
  util::ThreadPool::set_global_thread_count(threads);
  const core::SolveCache::Stats before = core::SolveCache::global()->stats();
  const core::PipelinePool::Stats pool_before =
      core::PipelinePool::global().stats();
  const auto start = Clock::now();
  datacenter::FleetModel model(fleet.config);
  (void)model.run(fleet.streams);
  const double elapsed = ms_since(start);
  const core::SolveCache::Stats after = core::SolveCache::global()->stats();
  const core::PipelinePool::Stats pool_after =
      core::PipelinePool::global().stats();
  return CaseResult{fleet.name + "_warm_t" + std::to_string(threads), threads,
                    elapsed, after.misses - before.misses,
                    after.hits - before.hits,
                    pool_after.constructions - pool_before.constructions,
                    pool_after.reuses - pool_before.reuses};
}

void write_json(const std::string& path,
                const std::vector<CaseResult>& cases) {
  std::ofstream os(path);
  if (!os) {
    std::cerr << "cannot open " << path << " for writing\n";
    std::exit(1);
  }
  os << "{\n  \"schema\": \"tpcool-datacenter-bench-v1\",\n  \"cases\": [\n";
  for (std::size_t i = 0; i < cases.size(); ++i) {
    const CaseResult& c = cases[i];
    os << "    {\"name\": \"" << c.name << "\", \"threads\": " << c.threads
       << ", \"solve_ms\": " << c.best_ms << ", \"iterations\": " << c.solves
       << ", \"hits\": " << c.hits
       << ", \"constructions\": " << c.constructions
       << ", \"reuses\": " << c.reuses << "}"
       << (i + 1 < cases.size() ? "," : "") << "\n";
  }
  os << "  ]\n}\n";
}

}  // namespace

int main(int argc, char** argv) {
  bool fast = false;
  int repeats = 2;
  std::size_t max_threads = util::ThreadPool::default_thread_count();
  std::string json_path = "BENCH_datacenter.json";
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
      std::cerr << "usage: datacenter_scaling [--fast] [--threads N] "
                   "[--json PATH] [--repeats N] [--cache-file PATH] "
                   "[--trace-file PATH]\n";
      return 2;
    }
  }

  std::vector<std::size_t> thread_counts{1};
  const std::size_t cap = fast ? std::min<std::size_t>(2, max_threads)
                               : max_threads;
  for (std::size_t t = 2; t <= cap; t *= 2) thread_counts.push_back(t);

  // The fleet scenarios: a 4-rack fleet across every placement policy, and
  // the headline 16-rack sweep (16 heterogeneous racks, 16 arrival
  // streams) under round-robin.  Coarse 2 mm cells — this bench measures
  // the engine, not figure-quality physics.
  constexpr double kCell = 2.0e-3;
  std::vector<FleetCase> fleets;
  for (const std::string& policy : datacenter::placement_policy_names()) {
    FleetCase fleet;
    fleet.name = "fleet4_" + policy;
    fleet.config = datacenter::make_heterogeneous_fleet(4, 2, kCell);
    fleet.config.placement = policy;
    fleet.streams = make_streams(6);
    fleets.push_back(std::move(fleet));
  }
  {
    FleetCase fleet;
    fleet.name = "fleet16_round-robin";
    fleet.config = datacenter::make_heterogeneous_fleet(16, 1, kCell);
    fleet.config.placement = "round-robin";
    fleet.streams = make_streams(16);
    fleets.push_back(std::move(fleet));
  }

  std::vector<CaseResult> cases;

  // Snapshot phase: load (if present), warm-replay every fleet at the top
  // thread count without clearing, save the union, verify round-trip.
  if (!cache_file.empty()) {
    bool loaded = false;
    try {
      core::SolveCache::global()->load(cache_file);
      loaded = true;
    } catch (const core::SnapshotError& error) {
      std::cerr << "starting cold (" << error.what() << ")\n";
    }
    for (const FleetCase& fleet : fleets) {
      cases.push_back(run_warm_case(fleet, cap));
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
  // every fleet's result digest must match at every swept thread count.
  std::map<std::string, std::uint64_t> digests;
  bool digest_ok = true;
  for (const std::size_t threads : thread_counts) {
    for (const FleetCase& fleet : fleets) {
      std::uint64_t digest = 0;
      cases.push_back(run_case(fleet, threads, repeats, digest));
      const auto [it, inserted] = digests.emplace(fleet.name, digest);
      if (!inserted && it->second != digest) {
        std::cerr << "DETERMINISM FAILURE: " << fleet.name << " at "
                  << threads << " threads diverges from the "
                  << thread_counts.front() << "-thread result\n";
        digest_ok = false;
      }
    }
  }
  util::ThreadPool::set_global_thread_count(0);

  write_json(json_path, cases);

  util::TablePrinter table({"case", "threads", "best ms", "solves", "hits",
                            "built", "reused"});
  for (const CaseResult& c : cases) {
    table.add_row({c.name, std::to_string(c.threads),
                   util::TablePrinter::fmt(c.best_ms, 1),
                   std::to_string(c.solves), std::to_string(c.hits),
                   std::to_string(c.constructions),
                   std::to_string(c.reuses)});
  }
  table.print(std::cout);
  std::cout << "\nwrote " << json_path << "\n";
  if (!digest_ok) return 1;
  std::cout << "fleet results bit-identical across thread counts {";
  for (std::size_t i = 0; i < thread_counts.size(); ++i) {
    std::cout << (i ? ", " : "") << thread_counts[i];
  }
  std::cout << "}\n";
  return 0;
}
