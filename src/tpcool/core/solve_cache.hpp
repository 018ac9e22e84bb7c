#pragma once
/// \file solve_cache.hpp
/// \brief Thread-safe LRU memo of coupled-solve results, shared by the
///        parallel experiment engine, with a one-file on-disk snapshot.
///
/// Experiment sweeps (Fig. 3/5/6 rows, Table I/II cells, the oracle's subset
/// enumeration, rack supply-temperature scans) and the acceptance tests
/// repeatedly request the same (server, workload, placement, operating
/// point) solves.  The cache deduplicates them across runners and — because
/// cache-miss solves run from a cold start (see
/// ServerModel::enable_solve_cache) — every stored value is a pure function
/// of its key.  That purity is what makes the parallel experiment engine
/// bit-deterministic: a racing duplicate compute produces the identical
/// bits, so it never matters which thread's result is stored or served.
/// Purity is also what makes snapshots sound: a value loaded from disk is
/// bit-identical to the value a cold re-solve of its key would produce, so
/// warm-loaded runs reproduce cold runs exactly.
///
/// One mutex guards one LRU list, its index and the in-flight records.
/// Entries hold immutable shared results, so a hit holds the lock only for
/// the lookup, the LRU splice and a reference-count bump; the copy handed
/// to the caller is made after unlock.
///
/// Persistence: `save()` / `load()` write and read one versioned,
/// endian-safe snapshot file (schema `kSnapshotVersion`), streamed entry by
/// entry and sealed by a trailing stream digest, so truncation and
/// corruption are detected, never undefined behavior.  Setting
/// `TPCOOL_SOLVE_CACHE_FILE=<path>` loads the snapshot into the
/// process-global cache at startup and atomically rewrites it at exit, so
/// reruns and the slow CTest suites start warm.  The format and tooling
/// are documented in docs/CACHE.md and inspectable via
/// scripts/cache_inspect.py.

#include <condition_variable>
#include <cstddef>
#include <cstdint>
#include <functional>
#include <list>
#include <memory>
#include <mutex>
#include <stdexcept>
#include <string>
#include <unordered_map>
#include <vector>

#include "tpcool/core/server.hpp"
#include "tpcool/thermal/step_control.hpp"
#include "tpcool/workload/benchmark.hpp"
#include "tpcool/workload/configuration.hpp"

namespace tpcool::core {

/// Thrown for unreadable, truncated, corrupt, or schema-mismatched
/// snapshot files.
class SnapshotError : public std::runtime_error {
 public:
  using std::runtime_error::runtime_error;
};

/// Least-recently-used memo from solve keys to SimulationResults.
///
/// All operations are safe to call concurrently.  The lock is released
/// while a miss computes, so independent keys solve in parallel.
/// Concurrent get_or_compute calls for the *same* key are deduplicated: the
/// first caller computes, later callers wait and count a hit — exactly the
/// serial schedule — so the miss/hit counters are deterministic and
/// machine-independent (the exact-counter gate in
/// scripts/check_bench_regression.py relies on this).  Waiters consume the
/// result from the in-flight computation record itself, not from the LRU
/// store, so dedup is exact under any eviction pressure — a key evicted
/// between its compute and a waiter's wake-up is still served.  A key
/// evicted and *re-requested later* is a genuine capacity miss, and which
/// entry eviction drops can depend on the parallel touch order: keep a
/// sweep's unique-key working set under capacity() (or raise it via
/// TPCOOL_SOLVE_CACHE_CAPACITY) for cross-run-exact counts.
class SolveCache {
 public:
  /// Capacity is in entries; one 1 mm-grid SimulationResult is ~100 KB, so
  /// the default bounds the cache around tens of MB.  The process-global
  /// cache honors a TPCOOL_SOLVE_CACHE_CAPACITY env override.
  static constexpr std::size_t kDefaultCapacity = 256;

  /// Snapshot schema version; load() refuses any other version.
  /// v2: SimulationResult gained the transient-segment payload.
  /// v4: one streamed file replaces the v3 manifest plus segments.
  static constexpr std::uint32_t kSnapshotVersion = 4;

  explicit SolveCache(std::size_t capacity = kDefaultCapacity);

  SolveCache(const SolveCache&) = delete;
  SolveCache& operator=(const SolveCache&) = delete;

  /// Cache hit/miss/eviction counters since construction or clear().
  struct Stats {
    std::size_t hits = 0;
    std::size_t misses = 0;
    std::size_t evictions = 0;
    std::size_t size = 0;
    /// Threads currently blocked on an in-flight computation (a gauge, not
    /// a counter; clear() does not reset it).
    std::size_t waiting = 0;
  };

  /// Serve `key` from the cache, or run `compute`, store and return its
  /// result.  `compute` runs without the cache lock held; a concurrent
  /// call for the same key blocks until the first caller's result lands
  /// and then counts a hit.
  [[nodiscard]] SimulationResult get_or_compute(
      const std::string& key,
      const std::function<SimulationResult()>& compute);

  /// Lookup without computing; returns true and fills `out` on a hit.
  [[nodiscard]] bool try_get(const std::string& key, SimulationResult& out);

  /// Insert (idempotent: an existing entry is kept and refreshed as
  /// most-recently-used; values for one key are identical by construction).
  void put(const std::string& key, SimulationResult result);

  [[nodiscard]] Stats stats() const;
  [[nodiscard]] std::size_t capacity() const noexcept { return capacity_; }

  /// Drop all entries and reset the counters.
  void clear();

  // ------------------------------------------------------- persistence --

  /// Write every entry (most- to least-recently-used) to a temporary file
  /// next to `path`, one entry at a time, then rename it over `path`, so
  /// readers and a crash mid-write never observe a partial snapshot.
  /// Throws SnapshotError when the file cannot be written.  Snapshots
  /// larger than TPCOOL_SOLVE_CACHE_WARN_MB megabytes (default 64, <= 0
  /// disables) log a warning through util/logging so fleet-scale runs
  /// surface growth early.
  void save(const std::string& path) const;

  /// Merge the snapshot at `path` into this cache.  The file is decoded
  /// entry by entry and its trailing digest checked *before* the cache is
  /// touched.  Loaded entries join behind the existing ones in saved
  /// recency order (existing keys win; values for one key are identical by
  /// construction) and the usual capacity eviction applies.  Hit/miss
  /// counters are not touched.  Throws SnapshotError — never UB — on
  /// unreadable, truncated, corrupt, or schema-mismatched files.
  void load(const std::string& path);

  /// Order-insensitive digest over all entries: the wrapping sum of
  /// per-entry FNV-1a digests (key bytes then payload bytes).  Independent
  /// of recency order and merge interleaving, so equal digests certify
  /// equal contents across save/load round trips and concurrent
  /// merge-saves.
  [[nodiscard]] std::uint64_t content_digest() const;

  /// Load `path` into `cache` now if the file exists (a corrupt snapshot
  /// warns on stderr and starts cold — a cache must never make a run
  /// fail), and register a process-exit hook that atomically saves the
  /// cache back to `path`.  The exit save first folds the then-current
  /// on-disk snapshot back in (in-memory entries win), so warmth
  /// accumulates across processes instead of being clobbered by a run
  /// that cleared the cache.  One path per cache, last attach wins — an
  /// explicit attach replaces the TPCOOL_SOLVE_CACHE_FILE
  /// registration, and the displacement is logged through util/logging so
  /// a silently dropped snapshot path is visible.  The registry keeps
  /// `cache` alive until exit.
  static void attach_persistent_file(const std::shared_ptr<SolveCache>& cache,
                                     std::string path);

  /// Process-wide cache shared by the experiment runners, the rack
  /// coordinator and the oracle sweeps.  Reads TPCOOL_SOLVE_CACHE_CAPACITY
  /// (entries) and TPCOOL_SOLVE_CACHE_FILE (snapshot path) once, at first
  /// use.
  [[nodiscard]] static const std::shared_ptr<SolveCache>& global();

 private:
  using ResultPtr = std::shared_ptr<const SimulationResult>;

  struct Entry {
    std::string key;
    ResultPtr result;
  };

  /// Shared record of one in-flight computation.  The computing thread
  /// publishes the result (or the failure) here; waiters hold their own
  /// reference and consume from it directly, immune to LRU eviction.
  struct InFlight {
    ResultPtr result;  ///< Set once the compute succeeded.
    bool failed = false;
  };

  /// Requires the lock: on a hit, count it, move the entry to the LRU front
  /// and return its result; null (and nothing counted) on a miss.
  ResultPtr lookup(const std::string& key);
  /// Requires the lock.
  void count_miss();
  /// Requires the lock: insert `result` as most-recently-used, or refresh
  /// the existing entry for `key`, then evict over capacity.
  void insert(const std::string& key, ResultPtr result);
  /// Requires the lock: drop least-recently-used entries over capacity.
  void evict_over_capacity();
  /// Copy of the entry list (most- to least-recently-used), taken under
  /// the lock; the results themselves are shared, not copied.
  [[nodiscard]] std::vector<Entry> entries() const;

  /// Snapshot codec: stream `entries` to `path` atomically and return the
  /// file size in bytes; read and fully validate a snapshot file.
  static std::uint64_t write_snapshot(const std::string& path,
                                      const std::vector<Entry>& entries);
  [[nodiscard]] static std::vector<Entry> read_snapshot(
      const std::string& path);

  mutable std::mutex mutex_;
  std::condition_variable compute_done_;
  std::size_t capacity_;
  std::list<Entry> lru_;  ///< Front = most recently used.
  std::unordered_map<std::string, std::list<Entry>::iterator> index_;
  std::unordered_map<std::string, std::shared_ptr<InFlight>> in_flight_;
  Stats stats_;
};

/// Append a double to a cache key as its exact bit pattern (hex).  Keys must
/// distinguish 1.25e-3 from 1.2500001e-3; formatted decimals would not.
void append_key_bits(std::string& key, double value);

/// Canonical key fragment for the solve inputs below the server level:
/// benchmark profile (all model parameters, not just the name),
/// configuration, placement, and idle state.
[[nodiscard]] std::string solve_request_key(
    const workload::BenchmarkProfile& bench,
    const workload::Configuration& config, const std::vector<int>& cores,
    power::CState idle_state);

/// Canonical key for one transient segment: server scope + the steady solve
/// inputs of the phase + operating point + segment duration + every
/// step-control parameter (`fixed_dt_s > 0` selects the fixed-period
/// baseline integrator; the adaptive parameters are keyed either way) + a
/// 128-bit digest of the initial temperature field's exact bit patterns.
/// The digest stands in for the full field — two seeds of an FNV-1a stream
/// over the cell bits make an accidental collision negligible — so chained
/// segments key on where they start, which is what makes warm transient
/// reruns pure cache replay.
[[nodiscard]] std::string segment_request_key(
    const std::string& scope, const workload::BenchmarkProfile& bench,
    const workload::Configuration& config, const std::vector<int>& cores,
    power::CState idle_state, const thermosyphon::OperatingPoint& op,
    double duration_s, const thermal::StepControlConfig& step_control,
    double fixed_dt_s, const std::vector<double>& initial_field_c);

}  // namespace tpcool::core
