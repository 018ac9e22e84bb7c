#pragma once
/// \file solve_cache.hpp
/// \brief Thread-safe LRU memo of coupled-solve results, shared by the
///        parallel experiment engine, with a one-file on-disk snapshot.
///
/// Experiment sweeps (Fig. 3/5/6 rows, Table I/II cells, the oracle's subset
/// enumeration, rack supply-temperature scans) and the acceptance tests
/// repeatedly request the same (server, workload, placement, operating
/// point) solves.  The cache deduplicates them across runners.  Keys are
/// built from the solve's inputs alone (`solve_key`), and every miss runs a
/// cold solve on a server built from those inputs (see `cached_solve` in
/// parallel.hpp), so every stored value is a pure function of its key.
/// That purity is what makes the parallel experiment engine
/// bit-deterministic: a racing duplicate compute produces the identical
/// bits, so it never matters which thread's result is stored or served.
/// Purity is also what makes snapshots sound: a value loaded from disk is
/// bit-identical to the value a cold re-solve of its key would produce, so
/// warm-loaded runs reproduce cold runs exactly.
///
/// One mutex guards one LRU list, its index and the in-flight records.
/// Entries hold immutable shared results, so a hit holds the lock only for
/// the lookup, the LRU splice and a reference-count bump.
/// `get_or_compute_shared` hands out that shared result itself, so a hit
/// copies nothing.  `find` beside it answers only what is already stored,
/// so a caller can serve its hits inline and compute only its misses.
///
/// The cache lives for one process.  Snapshots are explicit: `save()` /
/// `load()` write and read one versioned, endian-safe snapshot file (schema
/// `kSnapshotVersion`), streamed entry by entry and sealed by a trailing
/// stream digest, so truncation and corruption are detected, never
/// undefined behavior.  Nothing loads or saves a snapshot implicitly.  The
/// format and tooling are documented in docs/CACHE.md and inspectable via
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
/// Concurrent get_or_compute_shared calls for the *same* key are
/// deduplicated: the first caller computes, later callers wait and count a
/// hit — exactly the serial schedule — so the miss/hit counters are
/// deterministic and machine-independent (the exact-counter gate in
/// scripts/check_bench_regression.py relies on this).  Waiters consume the
/// result from the in-flight computation record itself, not from the LRU
/// store, so dedup is exact under any eviction pressure — a key evicted
/// between its compute and a waiter's wake-up is still served.  A key
/// evicted and *re-requested later* is a genuine capacity miss, and which
/// entry eviction drops can depend on the parallel touch order: keep a
/// sweep's unique-key working set under capacity() (or give the sweep its
/// own, larger SolveCache) for cross-run-exact counts.
class SolveCache {
 public:
  /// Capacity is in entries; one 1 mm-grid SimulationResult is ~100 KB, so
  /// the default bounds the cache around tens of MB.
  static constexpr std::size_t kDefaultCapacity = 256;

  /// Snapshot schema version; load() refuses any other version.
  /// v2: SimulationResult gained the transient-segment payload.
  /// v4: one streamed file replaces the v3 manifest plus segments.
  /// v5: the transient-segment payload is gone (steady solves only).
  static constexpr std::uint32_t kSnapshotVersion = 5;

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

  /// Immutable result shared between the cache and its readers.
  using ResultPtr = std::shared_ptr<const SimulationResult>;

  /// Serve `key` from the cache, or run `compute`, store and return its
  /// result.  The returned pointer is the stored entry itself (never
  /// null), so a hit costs a reference-count bump, not a copy; it stays
  /// valid after eviction.  `compute` runs without the cache lock held; a
  /// concurrent call for the same key blocks until the first caller's
  /// result lands and then counts a hit.
  [[nodiscard]] ResultPtr get_or_compute_shared(
      const std::string& key,
      const std::function<SimulationResult()>& compute);

  /// Serve `key` if it is stored: count a hit, move the entry to the LRU
  /// front and return it.  Otherwise (absent or still in flight) return
  /// null and count nothing, so a later get_or_compute_shared for the key
  /// counts the request once, as its miss or its hit.
  [[nodiscard]] ResultPtr find(const std::string& key);

  [[nodiscard]] Stats stats() const;
  [[nodiscard]] std::size_t capacity() const noexcept { return capacity_; }

  /// Drop all entries and reset the counters.
  void clear();

  // ------------------------------------------------------- persistence --

  /// Write every entry (most- to least-recently-used) to a temporary file
  /// next to `path`, one entry at a time, then rename it over `path`, so
  /// readers and a crash mid-write never observe a partial snapshot.
  /// Throws SnapshotError when the file cannot be written.
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

  /// Process-wide cache shared by the experiment runners, the fleet
  /// engines and the oracle sweeps: kDefaultCapacity entries, empty at
  /// first use, gone at exit.
  [[nodiscard]] static const std::shared_ptr<SolveCache>& global();

 private:
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

/// Canonical key for one coupled steady solve: `scope` (the server's
/// construction inputs, e.g. `solve_scope` in parallel.hpp), then the
/// operating point's exact bits, then `solve_request_key`.  These bytes
/// are what snapshots store, so they must not change without a
/// kSnapshotVersion bump.
[[nodiscard]] std::string solve_key(const std::string& scope,
                                    const thermosyphon::OperatingPoint& op,
                                    const workload::BenchmarkProfile& bench,
                                    const workload::Configuration& config,
                                    const std::vector<int>& cores,
                                    power::CState idle_state);

/// The same key from its prebuilt pieces: `scope`, the operating point's
/// exact bits, then `request_key` (a `solve_request_key`).  Callers that
/// ask one request at several operating points build the pieces once.
[[nodiscard]] std::string solve_key(const std::string& scope,
                                    const thermosyphon::OperatingPoint& op,
                                    const std::string& request_key);

}  // namespace tpcool::core
