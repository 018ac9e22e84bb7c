/// \file streaming_observability.cpp
/// \brief Observability walkthrough: a generated diurnal day streams
///        through the incremental fleet engine with three observers
///        attached at once — a live console ticker, an hourly min/max/mean
///        rollup (FleetRollupReducer), and a JSONL sink whose replay
///        reconstructs the batch result bit for bit.
///
/// The point of the streaming surface: the engine never holds more than
/// one interval in memory (peak_held_intervals), observers see every
/// interval exactly once in timeline order on the calling thread, and the
/// aggregated stream IS the batch `FleetModel::run` result — one code
/// path, certified by digest at the end.

#include <cstdio>
#include <iostream>
#include <sstream>

#include "tpcool/core/solve_cache.hpp"
#include "tpcool/datacenter/fleet.hpp"
#include "tpcool/datacenter/streaming.hpp"
#include "tpcool/datacenter/workload_gen.hpp"
#include "tpcool/util/table.hpp"

namespace {

using namespace tpcool;

/// A minimal custom observer: prints a one-line ticker every few intervals
/// — what a live dashboard hook looks like.
class ConsoleTicker final : public datacenter::FleetObserver {
 public:
  void on_run_begin(const datacenter::FleetConfig& config,
                    std::size_t stream_count,
                    double total_duration_s) override {
    std::cout << "run: " << config.racks.size() << " racks, " << stream_count
              << " streams, " << total_duration_s / 3600.0 << " h\n";
  }
  void on_interval(const datacenter::FleetInterval& interval,
                   const datacenter::IntervalCounters& counters) override {
    if (interval.interval % 24 != 0) return;  // every ~6 h on a 15-min grid
    std::cout << "  t=" << interval.start_s / 3600.0 << "h  jobs="
              << interval.jobs.size() << "  IT="
              << util::TablePrinter::fmt(interval.it_power_w, 0) << "W  PUE="
              << util::TablePrinter::fmt(interval.pue, 3) << "  ("
              << counters.solves << " solves, " << counters.hits
              << " cache hits)\n";
  }
  void on_run_end(const datacenter::FleetRunSummary& summary) override {
    std::cout << "run end: " << summary.intervals << " intervals, fleet PUE "
              << util::TablePrinter::fmt(summary.avg_pue, 3) << ", "
              << summary.qos_violations << " QoS violations\n\n";
  }
};

}  // namespace

int main() {
  // One generated diurnal day: 4 correlated streams, interactive peak at
  // 14:00, batch overnight, flash-crowd bursts (seeded => reproducible).
  const datacenter::WorkloadGenerator generator(
      datacenter::diurnal_fleet_day(42, 4));
  const std::vector<workload::WorkloadTrace> streams = generator.generate();
  const datacenter::FleetConfig config =
      datacenter::make_heterogeneous_fleet(2, 2, 2.0e-3);

  std::cout << "== Streaming observability: one generated day, three "
               "observers ==\n\n";

  datacenter::StreamingFleetEngine engine(config, streams);
  ConsoleTicker ticker;
  datacenter::FleetRollupReducer hourly(3600.0);
  std::ostringstream jsonl;
  datacenter::JsonlFleetSink sink(jsonl);
  datacenter::FleetResultAggregator aggregator;
  engine.add_observer(ticker);      // 1: live console ticker
  engine.add_observer(hourly);      // 2: hourly min/max/mean rollup
  engine.add_observer(sink);        // 3: JSONL record of every interval
  engine.add_observer(aggregator);  // 4: the batch result, for the digest
  engine.run();

  // The rollup observer: a dashboard-sized digest of the day.
  util::TablePrinter rollups({"hour", "intervals", "IT mean [W]",
                              "IT max [W]", "PUE mean", "violations"});
  for (const datacenter::FleetRollupReducer::Rollup& w : hourly.rollups()) {
    if (w.first_interval % 16 != 0) continue;  // sample the table
    rollups.add_row({util::TablePrinter::fmt(w.start_s / 3600.0, 0),
                     std::to_string(w.intervals),
                     util::TablePrinter::fmt(w.it_power_w_mean, 0),
                     util::TablePrinter::fmt(w.it_power_w_max, 0),
                     util::TablePrinter::fmt(w.pue_mean, 3),
                     std::to_string(w.qos_violations)});
  }
  std::cout << "--- hourly rollups (sampled) ---\n";
  rollups.print(std::cout);

  // The JSONL sink round-trips the run exactly: replaying the log yields
  // the batch digest, and the batch API itself is the same engine.
  std::istringstream replay_stream(jsonl.str());
  const datacenter::FleetResult replayed =
      datacenter::replay_fleet_jsonl(replay_stream);
  const bool replay_matches = datacenter::fleet_digest(replayed) ==
                              datacenter::fleet_digest(aggregator.result());
  std::cout << "\nJSONL log: " << jsonl.str().size() / 1024 << " KiB, replay "
            << (replay_matches ? "matches the batch digest bit for bit"
                               : "DIVERGES (bug!)")
            << "\n";
  std::cout << "peak intervals held in memory: "
            << engine.peak_held_intervals() << " (bound: "
            << datacenter::StreamingFleetEngine::kMaxHeldIntervals
            << ", independent of trace length)\n";

  const core::SolveCache::Stats cache = core::SolveCache::global()->stats();
  std::cout << "solve cache: " << cache.misses << " coupled solves, "
            << cache.hits << " served from the cache\n"
            << "\nthe same engine behind FleetModel::run streams a week (or"
            " a year) of\ngenerated load at constant memory — see"
            " fleet_stream in perf/README.md.\n";
  return replay_matches ? 0 : 1;  // CI smoke-runs this as a replay check
}
