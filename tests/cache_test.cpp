// Tests for the solve cache: hit/miss/eviction accounting (exact at any
// capacity — the eviction-race regression), LRU order, first-value-wins,
// in-flight dedup of concurrent same-key requests, identity of the shared
// results get_or_compute_shared returns, `find` (a hit counts and refreshes
// recency, a miss counts nothing, alone or racing a compute),
// the order-insensitive content digest, the one-file snapshot (lossless
// round trip, merge semantics, rejection of damaged or foreign files with
// the cache left untouched, seeded byte mutations that load or throw the
// typed error), and a concurrent merge-save torture run with a
// deterministic final digest.

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <memory>
#include <random>
#include <string>
#include <thread>
#include <vector>

#include "tpcool/core/solve_cache.hpp"
#include "tpcool/util/error.hpp"
#include "tpcool/util/grid2d.hpp"
#include "tpcool/util/parallel_map.hpp"
#include "tpcool/util/thread_pool.hpp"
#include "byte_mutation.hpp"

namespace tpcool::core {
namespace {

SimulationResult result_with_max(double max_c) {
  SimulationResult result;
  result.die.max_c = max_c;
  return result;
}

/// Store `result` under `key` through get_or_compute_shared, the only way
/// to store: a miss stores it, a resident key keeps its value.
void put(SolveCache& cache, const std::string& key, SimulationResult result) {
  (void)cache.get_or_compute_shared(key, [&] { return std::move(result); });
}

/// A SimulationResult exercising every serialized field, deterministic in
/// `seed` so bitwise comparisons are meaningful.
SimulationResult rich_result(int seed) {
  const double s = static_cast<double>(seed);
  SimulationResult r;
  r.die = {60.0 + s, 50.0 + s, 3.5 + s, 4u + static_cast<std::size_t>(seed),
           100u};
  r.package = {45.0 + s, 40.0 + s, 0.5 + s, 2u, 100u};
  r.tcase_c = 55.0 + s;
  r.total_power_w = 80.0 + s;
  r.power = {40.0 + s, 5.0 + s, 12.0 + s, 8.0 + s};
  r.syphon.t_sat_c = 35.0 + s;
  r.syphon.refrigerant_flow_kg_s = 1e-3 * (1.0 + s);
  r.syphon.loop_exit_quality = 0.3 + 0.01 * s;
  r.syphon.water_outlet_c = 32.0 + s;
  r.syphon.q_total_w = 75.0 + s;
  r.syphon.htc_map = util::Grid2D<double>(3, 2);
  r.syphon.fluid_temp_map = util::Grid2D<double>(3, 2);
  for (std::size_t i = 0; i < r.syphon.htc_map.data().size(); ++i) {
    r.syphon.htc_map.data()[i] = 5000.0 + s + static_cast<double>(i);
    r.syphon.fluid_temp_map.data()[i] = 30.0 + s + 0.1 * static_cast<double>(i);
  }
  r.syphon.channels = {{0.25 + 0.01 * s, 10.0 + s, false},
                       {0.9 + 0.001 * s, 2.0 + s, seed % 2 == 1}};
  r.syphon.any_dryout = seed % 2 == 1;
  r.die_field_c = util::Grid2D<double>(4, 3);
  r.package_field_c = util::Grid2D<double>(2, 2);
  for (std::size_t i = 0; i < r.die_field_c.data().size(); ++i) {
    r.die_field_c.data()[i] = 60.0 + s + 0.25 * static_cast<double>(i);
  }
  for (std::size_t i = 0; i < r.package_field_c.data().size(); ++i) {
    r.package_field_c.data()[i] = 45.0 + s + 0.5 * static_cast<double>(i);
  }
  r.active_cores = {seed, 1, 5};
  return r;
}

void expect_results_identical(const SimulationResult& a,
                              const SimulationResult& b) {
  EXPECT_EQ(a.die.max_c, b.die.max_c);
  EXPECT_EQ(a.die.avg_c, b.die.avg_c);
  EXPECT_EQ(a.die.grad_max_c_per_mm, b.die.grad_max_c_per_mm);
  EXPECT_EQ(a.die.hotspot_cells, b.die.hotspot_cells);
  EXPECT_EQ(a.die.cell_count, b.die.cell_count);
  EXPECT_EQ(a.package.max_c, b.package.max_c);
  EXPECT_EQ(a.tcase_c, b.tcase_c);
  EXPECT_EQ(a.total_power_w, b.total_power_w);
  EXPECT_EQ(a.power.active_cores_w, b.power.active_cores_w);
  EXPECT_EQ(a.power.idle_cores_w, b.power.idle_cores_w);
  EXPECT_EQ(a.power.mcio_w, b.power.mcio_w);
  EXPECT_EQ(a.power.llc_w, b.power.llc_w);
  EXPECT_EQ(a.syphon.t_sat_c, b.syphon.t_sat_c);
  EXPECT_EQ(a.syphon.refrigerant_flow_kg_s, b.syphon.refrigerant_flow_kg_s);
  EXPECT_EQ(a.syphon.loop_exit_quality, b.syphon.loop_exit_quality);
  EXPECT_EQ(a.syphon.water_outlet_c, b.syphon.water_outlet_c);
  EXPECT_EQ(a.syphon.q_total_w, b.syphon.q_total_w);
  EXPECT_EQ(a.syphon.htc_map.data(), b.syphon.htc_map.data());
  EXPECT_EQ(a.syphon.fluid_temp_map.data(), b.syphon.fluid_temp_map.data());
  ASSERT_EQ(a.syphon.channels.size(), b.syphon.channels.size());
  for (std::size_t i = 0; i < a.syphon.channels.size(); ++i) {
    EXPECT_EQ(a.syphon.channels[i].exit_quality,
              b.syphon.channels[i].exit_quality);
    EXPECT_EQ(a.syphon.channels[i].absorbed_w,
              b.syphon.channels[i].absorbed_w);
    EXPECT_EQ(a.syphon.channels[i].dried_out,
              b.syphon.channels[i].dried_out);
  }
  EXPECT_EQ(a.syphon.any_dryout, b.syphon.any_dryout);
  EXPECT_EQ(a.die_field_c.data(), b.die_field_c.data());
  EXPECT_EQ(a.package_field_c.data(), b.package_field_c.data());
  EXPECT_EQ(a.active_cores, b.active_cores);
}

std::string read_file(const std::string& path) {
  std::ifstream is(path, std::ios::binary);
  EXPECT_TRUE(is.good()) << path;
  return {std::istreambuf_iterator<char>(is),
          std::istreambuf_iterator<char>()};
}

void write_file(const std::string& path, const std::string& blob) {
  std::ofstream os(path, std::ios::binary | std::ios::trunc);
  os.write(blob.data(), static_cast<std::streamsize>(blob.size()));
}

/// Recompute the trailing FNV-1a stream digest after a deliberate edit, so
/// only the check under test can fire.
void reseal(std::string& blob) {
  std::uint64_t digest = 1469598103934665603ULL;
  for (std::size_t i = 0; i + 8 < blob.size(); ++i) {
    digest ^= static_cast<unsigned char>(blob[i]);
    digest *= 1099511628211ULL;
  }
  for (std::size_t i = 0; i < 8; ++i) {
    blob[blob.size() - 8 + i] = static_cast<char>((digest >> (8 * i)) & 0xFF);
  }
}

// ------------------------------------------------------------- accounting --

TEST(SolveCacheTest, RejectsZeroCapacity) {
  EXPECT_THROW(SolveCache(0), util::PreconditionError);
}

TEST(SolveCacheTest, CountsHitsAndMisses) {
  // find counts a hit and nothing on a miss, so the request that follows a
  // null find counts exactly one miss; a compute that throws counts its
  // miss and stores nothing.
  SolveCache cache(4);
  EXPECT_EQ(cache.find("a"), nullptr);
  struct Failed {};
  EXPECT_THROW((void)cache.get_or_compute_shared(
                   "a", []() -> SimulationResult { throw Failed{}; }),
               Failed);
  EXPECT_EQ(cache.stats().hits, 0u);
  EXPECT_EQ(cache.stats().misses, 1u);
  put(cache, "a", result_with_max(50.0));
  const SolveCache::ResultPtr a = cache.find("a");
  ASSERT_NE(a, nullptr);
  EXPECT_DOUBLE_EQ(a->die.max_c, 50.0);

  int computes = 0;
  const auto compute = [&] {
    ++computes;
    return result_with_max(60.0);
  };
  EXPECT_DOUBLE_EQ(cache.get_or_compute_shared("b", compute)->die.max_c, 60.0);
  EXPECT_DOUBLE_EQ(cache.get_or_compute_shared("b", compute)->die.max_c, 60.0);
  EXPECT_EQ(computes, 1);

  const SolveCache::Stats stats = cache.stats();
  EXPECT_EQ(stats.hits, 2u);    // find("a") + second lookup of "b"
  EXPECT_EQ(stats.misses, 3u);  // failed compute of "a", put("a"), first "b"
  EXPECT_EQ(stats.evictions, 0u);
  EXPECT_EQ(stats.size, 2u);  // the failed compute stored nothing
}

TEST(SolveCacheTest, EvictsLeastRecentlyUsed) {
  SolveCache cache(2);
  put(cache, "a", result_with_max(1.0));
  put(cache, "b", result_with_max(2.0));
  ASSERT_NE(cache.find("a"), nullptr);  // "b" is now least recently used
  put(cache, "c", result_with_max(3.0));     // evicts "b"

  EXPECT_NE(cache.find("a"), nullptr);
  EXPECT_NE(cache.find("c"), nullptr);
  EXPECT_EQ(cache.find("b"), nullptr);
  const SolveCache::Stats stats = cache.stats();
  EXPECT_EQ(stats.evictions, 1u);
  EXPECT_EQ(stats.size, 2u);
}

TEST(SolveCacheTest, FirstValueWins) {
  SolveCache cache(2);
  put(cache, "a", result_with_max(1.0));
  put(cache, "a", result_with_max(99.0));  // same key: first value is kept
  const SolveCache::ResultPtr a = cache.find("a");
  ASSERT_NE(a, nullptr);
  EXPECT_DOUBLE_EQ(a->die.max_c, 1.0);
  EXPECT_EQ(cache.stats().size, 1u);
}

TEST(SolveCacheTest, ClearResetsEverything) {
  SolveCache cache(2);
  put(cache, "a", result_with_max(1.0));
  ASSERT_NE(cache.find("a"), nullptr);
  cache.clear();
  EXPECT_EQ(cache.stats().hits, 0u);
  EXPECT_EQ(cache.stats().size, 0u);
  EXPECT_EQ(cache.find("a"), nullptr);
}

TEST(SolveCacheTest, KeyDistinguishesNearbyDoubles) {
  std::string a;
  std::string b;
  append_key_bits(a, 1.25e-3);
  append_key_bits(b, 1.2500000001e-3);
  EXPECT_NE(a, b);
}

TEST(SolveCacheTest, SharedHitsHandOutTheStoredResult) {
  // get_or_compute_shared serves the stored entry itself: the miss and
  // every later hit return one and the same object, copied zero times.
  SolveCache cache(4);
  int computes = 0;
  const auto compute = [&] {
    ++computes;
    return rich_result(3);
  };
  const SolveCache::ResultPtr miss = cache.get_or_compute_shared("k", compute);
  const SolveCache::ResultPtr hit1 = cache.get_or_compute_shared("k", compute);
  const SolveCache::ResultPtr hit2 = cache.get_or_compute_shared("k", compute);
  EXPECT_EQ(computes, 1);
  EXPECT_EQ(miss.get(), hit1.get());
  EXPECT_EQ(hit1.get(), hit2.get());
  EXPECT_EQ(cache.find("k").get(), miss.get());
  expect_results_identical(*hit2, rich_result(3));
  EXPECT_EQ(cache.stats().hits, 3u);

  // A shared result outlives its entry's eviction.
  cache.clear();
  expect_results_identical(*hit1, rich_result(3));
}

TEST(SolveCacheTest, ConcurrentRequestsForOneKeyComputeOnce) {
  // 8 tasks race get_or_compute_shared on the same key from a 4-thread
  // pool; the in-flight dedup must run the compute exactly once and count
  // the other seven as hits — the serial schedule's numbers, independent
  // of timing.
  util::ThreadPool::set_global_thread_count(4);
  SolveCache cache(4);
  std::atomic<int> computes{0};
  const auto results = util::parallel_map<double>(8, [&](std::size_t) {
    return cache
        .get_or_compute_shared("shared",
                               [&] {
                                 ++computes;
                                 return result_with_max(42.0);
                               })
        ->die.max_c;
  });
  util::ThreadPool::set_global_thread_count(0);

  EXPECT_EQ(computes.load(), 1);
  for (const double value : results) EXPECT_DOUBLE_EQ(value, 42.0);
  const SolveCache::Stats stats = cache.stats();
  EXPECT_EQ(stats.misses, 1u);
  EXPECT_EQ(stats.hits, 7u);
}

TEST(SolveCacheTest, ConcurrentFindThenComputeCountsEachRequestOnce) {
  // 8 tasks each ask one key the way the fleet engine does: find first,
  // compute only on a null.  Whether a task's find lands before, during or
  // after the one compute, the totals are the serial schedule's: one
  // compute, one miss, seven hits.
  util::ThreadPool::set_global_thread_count(4);
  SolveCache cache(4);
  std::atomic<int> computes{0};
  const auto results = util::parallel_map<double>(8, [&](std::size_t) {
    if (const SolveCache::ResultPtr hit = cache.find("shared")) {
      return hit->die.max_c;
    }
    return cache
        .get_or_compute_shared("shared",
                               [&] {
                                 ++computes;
                                 return result_with_max(42.0);
                               })
        ->die.max_c;
  });
  util::ThreadPool::set_global_thread_count(0);

  EXPECT_EQ(computes.load(), 1);
  for (const double value : results) EXPECT_DOUBLE_EQ(value, 42.0);
  const SolveCache::Stats stats = cache.stats();
  EXPECT_EQ(stats.misses, 1u);
  EXPECT_EQ(stats.hits, 7u);
  EXPECT_EQ(stats.waiting, 0u);
}

TEST(SolveCacheTest, ExactCountersUnderEvictionPressure) {
  // Regression for the eviction/waiter recompute race: with capacity 1 and
  // a thread continuously evicting the shared entry, registered waiters
  // must still be served from the in-flight record — one compute, two
  // hits, exactly, no matter when the eviction lands.  Deterministic by
  // construction, not by timing: the compute body holds the key in flight
  // until both other tasks are registered waiters (the `waiting` gauge),
  // and the presser hammers the put/evict path throughout.
  util::ThreadPool::set_global_thread_count(4);
  SolveCache cache(1);
  std::atomic<int> computes{0};
  std::atomic<bool> stop{false};
  int pressed = 0;  // distinct keys, so every one is exactly one miss
  std::thread presser([&] {
    while (!stop.load()) {
      put(cache, "evict" + std::to_string(pressed++), result_with_max(0.0));
      std::this_thread::sleep_for(std::chrono::microseconds(1));
    }
  });
  const auto results = util::parallel_map<double>(3, [&](std::size_t) {
    return cache
        .get_or_compute_shared(
            "shared",
            [&] {
              ++computes;
              // stats() locks the cache; the compute runs without the lock
              // held, so polling is safe.
              while (cache.stats().waiting < 2) {
                std::this_thread::yield();
              }
              return result_with_max(7.0);
            })
        ->die.max_c;
  });
  stop = true;
  presser.join();
  util::ThreadPool::set_global_thread_count(0);

  EXPECT_EQ(computes.load(), 1);
  for (const double value : results) EXPECT_DOUBLE_EQ(value, 7.0);
  const SolveCache::Stats stats = cache.stats();
  EXPECT_EQ(stats.misses, 1u + static_cast<std::size_t>(pressed));
  EXPECT_EQ(stats.hits, 2u);
  EXPECT_EQ(stats.waiting, 0u);
}

TEST(SolveCacheTest, ContentDigestIsOrderInsensitive) {
  SolveCache forward(16);
  SolveCache backward(16);
  for (int i = 0; i < 6; ++i) {
    put(forward, "digest/k" + std::to_string(i), rich_result(i));
    put(backward, "digest/k" + std::to_string(5 - i), rich_result(5 - i));
  }
  EXPECT_EQ(forward.content_digest(), backward.content_digest());

  SolveCache different(16);
  for (int i = 0; i < 6; ++i) {
    put(different, "digest/k" + std::to_string(i), rich_result(i + 1));
  }
  EXPECT_NE(forward.content_digest(), different.content_digest());
}

// -------------------------------------------------------------- snapshots --

TEST(SolveCacheSnapshotTest, SaveLoadRoundTripIsLossless) {
  const std::string path = ::testing::TempDir() + "tpcool_snap_roundtrip.bin";
  SolveCache source(8);
  put(source, "alpha", rich_result(1));
  put(source, "beta", rich_result(2));
  put(source, "gamma", rich_result(3));
  ASSERT_NE(source.find("alpha"), nullptr);  // non-trivial LRU order
  source.save(path);

  SolveCache loaded(8);
  loaded.load(path);
  EXPECT_EQ(loaded.content_digest(), source.content_digest());
  EXPECT_EQ(loaded.stats().size, 3u);
  for (const auto& [key, seed] :
       {std::pair<const char*, int>{"alpha", 1}, {"beta", 2}, {"gamma", 3}}) {
    const SolveCache::ResultPtr out = loaded.find(key);
    ASSERT_NE(out, nullptr) << key;
    expect_results_identical(*out, rich_result(seed));
  }
  // One file, and no temporary left beside it.
  const std::filesystem::path dir = std::filesystem::path(path).parent_path();
  for (const auto& entry : std::filesystem::directory_iterator(dir)) {
    EXPECT_EQ(entry.path().filename().string().find(
                  "tpcool_snap_roundtrip.bin.tmp"),
              std::string::npos)
        << entry.path();
  }
  std::remove(path.c_str());
}

TEST(SolveCacheSnapshotTest, LoadMergesBehindExistingEntries) {
  const std::string path = ::testing::TempDir() + "tpcool_snap_merge.bin";
  SolveCache source(8);
  put(source, "alpha", rich_result(1));
  put(source, "beta", rich_result(2));
  put(source, "gamma", rich_result(3));
  source.save(path);  // saved MRU -> LRU: gamma, beta, alpha

  // Existing entries win and stay most-recently-used; loaded ones join
  // behind them in saved recency order, so capacity eviction drops the
  // snapshot's least recently used entries first.
  SolveCache target(3);
  put(target, "alpha", rich_result(9));
  target.load(path);
  EXPECT_EQ(target.stats().size, 3u);
  EXPECT_EQ(target.stats().evictions, 0u);
  const SolveCache::ResultPtr alpha = target.find("alpha");
  ASSERT_NE(alpha, nullptr);
  EXPECT_EQ(alpha->die.max_c, rich_result(9).die.max_c);
  EXPECT_NE(target.find("gamma"), nullptr);
  EXPECT_NE(target.find("beta"), nullptr);

  SolveCache narrow(2);
  put(narrow, "alpha", rich_result(9));
  narrow.load(path);
  EXPECT_EQ(narrow.stats().evictions, 1u);
  EXPECT_NE(narrow.find("alpha"), nullptr);
  EXPECT_NE(narrow.find("gamma"), nullptr);
  EXPECT_EQ(narrow.find("beta"), nullptr);
  std::remove(path.c_str());
}

TEST(SolveCacheSnapshotTest, RejectsDamagedAndForeignFilesUntouched) {
  const std::string path = ::testing::TempDir() + "tpcool_snap_damage.bin";
  SolveCache source(4);
  put(source, "key", rich_result(4));
  put(source, "other", rich_result(5));
  source.save(path);
  const std::string blob = read_file(path);
  ASSERT_GT(blob.size(), 40u);

  // A cache with contents of its own: every rejected load must leave them
  // (and the counters) exactly as they were.
  SolveCache target(4);
  put(target, "resident", rich_result(6));  // its one miss
  const std::uint64_t digest = target.content_digest();
  const auto expect_untouched = [&](const std::string& what) {
    const SolveCache::Stats stats = target.stats();
    EXPECT_EQ(stats.size, 1u) << what;
    EXPECT_EQ(stats.hits, 0u) << what;
    EXPECT_EQ(stats.misses, 1u) << what;
    EXPECT_EQ(target.content_digest(), digest) << what;
  };
  const auto expect_rejected = [&](const std::string& what,
                                   const std::string& bytes) {
    write_file(path, bytes);
    EXPECT_THROW(target.load(path), SnapshotError) << what;
    expect_untouched(what);
  };

  EXPECT_THROW(target.load(::testing::TempDir() + "tpcool_no_such_file.bin"),
               SnapshotError);
  expect_untouched("missing file");
  expect_rejected("truncated", blob.substr(0, blob.size() - 20));
  expect_rejected("truncated mid-entry", blob.substr(0, blob.size() / 2));
  expect_rejected("shorter than the header", blob.substr(0, 10));
  std::string flipped = blob;  // one payload bit flipped, length intact
  flipped[blob.size() / 2] = static_cast<char>(flipped[blob.size() / 2] ^ 1);
  expect_rejected("flipped byte", flipped);
  std::string bad_magic = blob;
  bad_magic[0] = 'X';
  expect_rejected("bad magic", bad_magic);

  // The retired segmented format: its manifest differs from a snapshot in
  // the magic's last letter, 'M' for 'C'.
  std::string manifest = blob;
  manifest[7] = 'M';
  reseal(manifest);
  expect_rejected("segmented manifest", manifest);

  // A version-4 header (the format that still carried transient
  // segments), digest intact: refused by the version check, with a message
  // saying so.
  std::string v4 = blob;
  v4[8] = 4;
  v4[9] = v4[10] = v4[11] = 0;
  reseal(v4);
  expect_rejected("version 4", v4);
  try {
    target.load(path);
    ADD_FAILURE() << "expected SnapshotError";
  } catch (const SnapshotError& error) {
    EXPECT_NE(std::string(error.what()).find("schema version 4"),
              std::string::npos)
        << error.what();
  }
  std::remove(path.c_str());
}

TEST(SolveCacheSnapshotTest, MutatedSnapshotsLoadOrThrowTyped) {
  // Malformed input: seeded flips, insertions, deletions and truncations
  // of a small snapshot, each loaded as written and again with its stream
  // digest resealed so the damage reaches the entry parser.  Each must
  // load or throw SnapshotError, leaving a refusing cache empty.
  const std::string path = ::testing::TempDir() + "tpcool_snap_mutant.bin";
  SolveCache source(4);
  put(source, "key", rich_result(4));
  put(source, "other", rich_result(5));
  source.save(path);
  const std::string good = read_file(path);

  std::mt19937_64 rng(20261018);
  std::size_t loaded = 0;
  for (int m = 0; m < 300; ++m) {
    std::string mutant = test::mutate_bytes(good, rng);
    for (const bool resealed : {false, true}) {
      if (resealed && mutant.size() >= 8) reseal(mutant);
      write_file(path, mutant);
      SolveCache target(4);
      try {
        target.load(path);
        ++loaded;
      } catch (const SnapshotError&) {
        EXPECT_EQ(target.stats().size, 0u) << "mutant " << m;
      } catch (const std::exception& error) {
        ADD_FAILURE() << "mutant " << m << " threw " << error.what();
      }
    }
  }
  // Resealed payload edits that keep every length intact do load.
  EXPECT_GT(loaded, 0u);
  std::remove(path.c_str());
}

TEST(SolveCacheSnapshotTest, ConcurrentMergeSavesConvergeDeterministically) {
  // Torture: four OS threads repeatedly merge-save (load + save) their own
  // caches into one snapshot path.  Whole-file renames mean a load sees
  // either no file yet (SnapshotError, the documented cold start) or one
  // complete snapshot; after a final sequential merge round the snapshot
  // must hold exactly the union of all entries, certified by the
  // order-insensitive content digest.
  const std::string path = ::testing::TempDir() + "tpcool_cache_torture.bin";
  std::remove(path.c_str());
  constexpr int kThreads = 4;
  constexpr int kUniverse = 16;
  constexpr int kRounds = 12;

  // Capacity above the whole universe: eviction can never drop an entry,
  // so the converged union is exact.
  std::vector<std::unique_ptr<SolveCache>> caches;
  for (int t = 0; t < kThreads; ++t) {
    caches.push_back(std::make_unique<SolveCache>(64));
    for (int i = 0; i < 8; ++i) {
      const int id = (4 * t + i) % kUniverse;  // overlapping slices
      put(*caches.back(), "torture/k" + std::to_string(id), rich_result(id));
    }
  }

  std::vector<std::thread> threads;
  threads.reserve(kThreads);
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      for (int round = 0; round < kRounds; ++round) {
        try {
          caches[static_cast<std::size_t>(t)]->load(path);
        } catch (const SnapshotError&) {
          // No snapshot yet (first rounds): the cold-start path.
        }
        caches[static_cast<std::size_t>(t)]->save(path);
      }
    });
  }
  for (std::thread& thread : threads) thread.join();

  // One sequential merge round: afterwards the file holds every thread's
  // entries, i.e. exactly the universe.
  for (const std::unique_ptr<SolveCache>& cache : caches) {
    cache->load(path);
    cache->save(path);
  }

  SolveCache expected(64);
  for (int id = 0; id < kUniverse; ++id) {
    put(expected, "torture/k" + std::to_string(id), rich_result(id));
  }
  SolveCache merged(64);
  merged.load(path);
  EXPECT_EQ(merged.stats().size, static_cast<std::size_t>(kUniverse));
  EXPECT_EQ(merged.content_digest(), expected.content_digest());
  std::remove(path.c_str());
}

}  // namespace
}  // namespace tpcool::core
