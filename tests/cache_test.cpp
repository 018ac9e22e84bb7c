// Tests for the solve cache: hit/miss/eviction accounting (exact at any
// capacity — the eviction-race regression), LRU order, in-flight dedup of
// concurrent same-key requests, independence of the copies a hit returns,
// the order-insensitive content digest, the one-file snapshot (lossless
// round trip, merge semantics, rejection of damaged or foreign files with
// the cache left untouched, the size warning), a concurrent merge-save
// torture run with a deterministic final digest, and the
// attach_persistent_file displacement warning.

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "tpcool/core/parallel.hpp"
#include "tpcool/core/solve_cache.hpp"
#include "tpcool/util/error.hpp"
#include "tpcool/util/grid2d.hpp"
#include "tpcool/util/thread_pool.hpp"

namespace tpcool::core {
namespace {

SimulationResult result_with_max(double max_c) {
  SimulationResult result;
  result.die.max_c = max_c;
  return result;
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
  r.transient.end_state_c = {70.0 + s, 68.5 + s, 67.0 + s, 66.25 + s};
  r.transient.peak_tcase_c = 58.0 + s;
  r.transient.peak_die_c = 63.0 + s;
  r.transient.sim_time_s = 120.0 + s;
  r.transient.steps = 17u + static_cast<std::uint64_t>(seed);
  r.transient.rejected_steps = static_cast<std::uint64_t>(seed % 3);
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
  EXPECT_EQ(a.transient.end_state_c, b.transient.end_state_c);
  EXPECT_EQ(a.transient.peak_tcase_c, b.transient.peak_tcase_c);
  EXPECT_EQ(a.transient.peak_die_c, b.transient.peak_die_c);
  EXPECT_EQ(a.transient.sim_time_s, b.transient.sim_time_s);
  EXPECT_EQ(a.transient.steps, b.transient.steps);
  EXPECT_EQ(a.transient.rejected_steps, b.transient.rejected_steps);
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
  SolveCache cache(4);
  SimulationResult out;
  EXPECT_FALSE(cache.try_get("a", out));
  cache.put("a", result_with_max(50.0));
  EXPECT_TRUE(cache.try_get("a", out));
  EXPECT_DOUBLE_EQ(out.die.max_c, 50.0);

  int computes = 0;
  const auto compute = [&] {
    ++computes;
    return result_with_max(60.0);
  };
  EXPECT_DOUBLE_EQ(cache.get_or_compute("b", compute).die.max_c, 60.0);
  EXPECT_DOUBLE_EQ(cache.get_or_compute("b", compute).die.max_c, 60.0);
  EXPECT_EQ(computes, 1);

  const SolveCache::Stats stats = cache.stats();
  EXPECT_EQ(stats.hits, 2u);    // try_get("a") + second get_or_compute("b")
  EXPECT_EQ(stats.misses, 2u);  // first try_get("a") + first get_or_compute
  EXPECT_EQ(stats.evictions, 0u);
  EXPECT_EQ(stats.size, 2u);
}

TEST(SolveCacheTest, EvictsLeastRecentlyUsed) {
  SolveCache cache(2);
  cache.put("a", result_with_max(1.0));
  cache.put("b", result_with_max(2.0));
  SimulationResult out;
  ASSERT_TRUE(cache.try_get("a", out));  // "b" is now least recently used
  cache.put("c", result_with_max(3.0));  // evicts "b"

  EXPECT_TRUE(cache.try_get("a", out));
  EXPECT_TRUE(cache.try_get("c", out));
  EXPECT_FALSE(cache.try_get("b", out));
  const SolveCache::Stats stats = cache.stats();
  EXPECT_EQ(stats.evictions, 1u);
  EXPECT_EQ(stats.size, 2u);
}

TEST(SolveCacheTest, PutIsIdempotent) {
  SolveCache cache(2);
  cache.put("a", result_with_max(1.0));
  cache.put("a", result_with_max(99.0));  // same key: first value is kept
  SimulationResult out;
  ASSERT_TRUE(cache.try_get("a", out));
  EXPECT_DOUBLE_EQ(out.die.max_c, 1.0);
  EXPECT_EQ(cache.stats().size, 1u);
}

TEST(SolveCacheTest, ClearResetsEverything) {
  SolveCache cache(2);
  cache.put("a", result_with_max(1.0));
  SimulationResult out;
  ASSERT_TRUE(cache.try_get("a", out));
  cache.clear();
  EXPECT_FALSE(cache.try_get("a", out));
  EXPECT_EQ(cache.stats().hits, 0u);
  EXPECT_EQ(cache.stats().size, 0u);
}

TEST(SolveCacheTest, KeyDistinguishesNearbyDoubles) {
  std::string a;
  std::string b;
  append_key_bits(a, 1.25e-3);
  append_key_bits(b, 1.2500000001e-3);
  EXPECT_NE(a, b);
}

TEST(SolveCacheTest, HitReturnsAnIndependentCopy) {
  // Entries are stored once and shared; every hit must still hand out its
  // own deep copy, so a caller mutating its result cannot reach the entry.
  SolveCache cache(4);
  cache.put("stored", rich_result(1));
  SimulationResult first = cache.get_or_compute("stored", [] {
    ADD_FAILURE() << "a resident key must not recompute";
    return SimulationResult{};
  });
  first.tcase_c = -1.0;
  first.die_field_c.data()[0] = -1.0;
  first.syphon.channels.clear();
  first.transient.end_state_c.push_back(-1.0);
  SimulationResult second;
  ASSERT_TRUE(cache.try_get("stored", second));
  expect_results_identical(second, rich_result(1));

  // The value a miss returns is independent of the stored entry as well.
  SimulationResult computed =
      cache.get_or_compute("computed", [] { return rich_result(2); });
  computed.active_cores.clear();
  computed.syphon.htc_map.data()[0] = -1.0;
  expect_results_identical(
      cache.get_or_compute("computed", [] { return SimulationResult{}; }),
      rich_result(2));
}

TEST(SolveCacheTest, ConcurrentRequestsForOneKeyComputeOnce) {
  // 8 tasks race get_or_compute on the same key from a 4-thread pool; the
  // in-flight dedup must run the compute exactly once and count the other
  // seven as hits — the serial schedule's numbers, independent of timing.
  util::ThreadPool::set_global_thread_count(4);
  SolveCache cache(4);
  std::atomic<int> computes{0};
  const auto results = parallel_map<double>(
      8, 1, [](std::size_t chunk) { return chunk; },
      [&](std::size_t&, std::size_t) {
        return cache
            .get_or_compute("shared",
                            [&] {
                              ++computes;
                              return result_with_max(42.0);
                            })
            .die.max_c;
      });
  util::ThreadPool::set_global_thread_count(0);

  EXPECT_EQ(computes.load(), 1);
  for (const double value : results) EXPECT_DOUBLE_EQ(value, 42.0);
  const SolveCache::Stats stats = cache.stats();
  EXPECT_EQ(stats.misses, 1u);
  EXPECT_EQ(stats.hits, 7u);
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
  std::thread presser([&] {
    int i = 0;
    while (!stop.load()) {
      cache.put("evict" + std::to_string(i++), result_with_max(0.0));
      std::this_thread::sleep_for(std::chrono::microseconds(1));
    }
  });
  const auto results = parallel_map<double>(
      3, 1, [](std::size_t chunk) { return chunk; },
      [&](std::size_t&, std::size_t) {
        return cache
            .get_or_compute("shared",
                            [&] {
                              ++computes;
                              // stats() locks the cache; the compute runs
                              // without the lock held, so polling is safe.
                              while (cache.stats().waiting < 2) {
                                std::this_thread::yield();
                              }
                              return result_with_max(7.0);
                            })
            .die.max_c;
      });
  stop = true;
  presser.join();
  util::ThreadPool::set_global_thread_count(0);

  EXPECT_EQ(computes.load(), 1);
  for (const double value : results) EXPECT_DOUBLE_EQ(value, 7.0);
  const SolveCache::Stats stats = cache.stats();
  EXPECT_EQ(stats.misses, 1u);
  EXPECT_EQ(stats.hits, 2u);
  EXPECT_EQ(stats.waiting, 0u);
}

TEST(SolveCacheTest, ContentDigestIsOrderInsensitive) {
  SolveCache forward(16);
  SolveCache backward(16);
  for (int i = 0; i < 6; ++i) {
    forward.put("digest/k" + std::to_string(i), rich_result(i));
    backward.put("digest/k" + std::to_string(5 - i), rich_result(5 - i));
  }
  EXPECT_EQ(forward.content_digest(), backward.content_digest());

  SolveCache different(16);
  for (int i = 0; i < 6; ++i) {
    different.put("digest/k" + std::to_string(i), rich_result(i + 1));
  }
  EXPECT_NE(forward.content_digest(), different.content_digest());
}

// -------------------------------------------------------------- snapshots --

TEST(SolveCacheSnapshotTest, SaveLoadRoundTripIsLossless) {
  const std::string path = ::testing::TempDir() + "tpcool_snap_roundtrip.bin";
  SolveCache source(8);
  source.put("alpha", rich_result(1));
  source.put("beta", rich_result(2));
  source.put("gamma", rich_result(3));
  SimulationResult touched;
  ASSERT_TRUE(source.try_get("alpha", touched));  // non-trivial LRU order
  source.save(path);

  SolveCache loaded(8);
  loaded.load(path);
  EXPECT_EQ(loaded.content_digest(), source.content_digest());
  EXPECT_EQ(loaded.stats().size, 3u);
  for (const auto& [key, seed] :
       {std::pair<const char*, int>{"alpha", 1}, {"beta", 2}, {"gamma", 3}}) {
    SimulationResult out;
    ASSERT_TRUE(loaded.try_get(key, out)) << key;
    expect_results_identical(out, rich_result(seed));
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
  source.put("alpha", rich_result(1));
  source.put("beta", rich_result(2));
  source.put("gamma", rich_result(3));
  source.save(path);  // saved MRU -> LRU: gamma, beta, alpha

  // Existing entries win and stay most-recently-used; loaded ones join
  // behind them in saved recency order, so capacity eviction drops the
  // snapshot's least recently used entries first.
  SolveCache target(3);
  target.put("alpha", rich_result(9));
  target.load(path);
  EXPECT_EQ(target.stats().size, 3u);
  EXPECT_EQ(target.stats().evictions, 0u);
  SimulationResult out;
  ASSERT_TRUE(target.try_get("alpha", out));
  EXPECT_EQ(out.die.max_c, rich_result(9).die.max_c);
  EXPECT_TRUE(target.try_get("gamma", out));
  EXPECT_TRUE(target.try_get("beta", out));

  SolveCache narrow(2);
  narrow.put("alpha", rich_result(9));
  narrow.load(path);
  EXPECT_EQ(narrow.stats().evictions, 1u);
  EXPECT_TRUE(narrow.try_get("alpha", out));
  EXPECT_TRUE(narrow.try_get("gamma", out));
  EXPECT_FALSE(narrow.try_get("beta", out));
  std::remove(path.c_str());
}

TEST(SolveCacheSnapshotTest, RejectsDamagedAndForeignFilesUntouched) {
  const std::string path = ::testing::TempDir() + "tpcool_snap_damage.bin";
  SolveCache source(4);
  source.put("key", rich_result(4));
  source.put("other", rich_result(5));
  source.save(path);
  const std::string blob = read_file(path);
  ASSERT_GT(blob.size(), 40u);

  // A cache with contents of its own: every rejected load must leave them
  // (and the counters) exactly as they were.
  SolveCache target(4);
  target.put("resident", rich_result(6));
  const std::uint64_t digest = target.content_digest();
  const auto expect_untouched = [&](const std::string& what) {
    const SolveCache::Stats stats = target.stats();
    EXPECT_EQ(stats.size, 1u) << what;
    EXPECT_EQ(stats.hits + stats.misses, 0u) << what;
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

  // A version-3 header, digest intact: refused by the version check, with
  // a message saying so.
  std::string v3 = blob;
  v3[8] = 3;
  v3[9] = v3[10] = v3[11] = 0;
  reseal(v3);
  expect_rejected("version 3", v3);
  try {
    target.load(path);
    ADD_FAILURE() << "expected SnapshotError";
  } catch (const SnapshotError& error) {
    EXPECT_NE(std::string(error.what()).find("schema version 3"),
              std::string::npos)
        << error.what();
  }
  std::remove(path.c_str());
}

TEST(SolveCacheSnapshotTest, WarnsWhenSnapshotExceedsSizeThreshold) {
  // Fleet-scale growth guard: saves over TPCOOL_SOLVE_CACHE_WARN_MB
  // megabytes log a warning (default 64 MB; <= 0 disables).  A snapshot of
  // three rich results is a few KB, so a fractional threshold trips it.
  const std::string path = ::testing::TempDir() + "tpcool_snap_warn.bin";
  SolveCache source(8);
  source.put("alpha", rich_result(1));
  source.put("beta", rich_result(2));
  source.put("gamma", rich_result(3));

  ASSERT_EQ(setenv("TPCOOL_SOLVE_CACHE_WARN_MB", "0.001", 1), 0);
  ::testing::internal::CaptureStderr();
  source.save(path);
  const std::string warned = ::testing::internal::GetCapturedStderr();
  EXPECT_NE(warned.find("solve-cache snapshot"), std::string::npos) << warned;
  EXPECT_NE(warned.find("WARN"), std::string::npos) << warned;

  // Disabled (<= 0): the same oversized save stays quiet.
  ASSERT_EQ(setenv("TPCOOL_SOLVE_CACHE_WARN_MB", "0", 1), 0);
  ::testing::internal::CaptureStderr();
  source.save(path);
  EXPECT_EQ(::testing::internal::GetCapturedStderr(), "");

  // The default 64 MB threshold never fires for a few-KB snapshot.
  ASSERT_EQ(unsetenv("TPCOOL_SOLVE_CACHE_WARN_MB"), 0);
  ::testing::internal::CaptureStderr();
  source.save(path);
  EXPECT_EQ(::testing::internal::GetCapturedStderr(), "");
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
      caches.back()->put("torture/k" + std::to_string(id), rich_result(id));
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
    expected.put("torture/k" + std::to_string(id), rich_result(id));
  }
  SolveCache merged(64);
  merged.load(path);
  EXPECT_EQ(merged.stats().size, static_cast<std::size_t>(kUniverse));
  EXPECT_EQ(merged.content_digest(), expected.content_digest());
  std::remove(path.c_str());
}

// ------------------------------------------------------------ persistence --

TEST(AttachPersistentFileTest, WarnsWhenSecondPathDisplacesTheFirst) {
  // Last attach wins is deliberate (an explicit attach replaces the env
  // registration), but the displacement must be visible: the first
  // path will not be rewritten at exit.
  const std::string first =
      ::testing::TempDir() + "tpcool_attach_first.bin";
  const std::string second =
      ::testing::TempDir() + "tpcool_attach_second.bin";
  // Start without snapshots: a leftover one (from an earlier run's exit
  // save, possibly another format) would add its own load message.
  std::filesystem::remove(first);
  std::filesystem::remove(second);
  auto cache = std::make_shared<SolveCache>(8);
  cache->put("attach/key", rich_result(1));

  SolveCache::attach_persistent_file(cache, first);
  ::testing::internal::CaptureStderr();
  SolveCache::attach_persistent_file(cache, second);
  const std::string warned = ::testing::internal::GetCapturedStderr();
  EXPECT_NE(warned.find("WARN"), std::string::npos) << warned;
  EXPECT_NE(warned.find("displaces"), std::string::npos) << warned;
  EXPECT_NE(warned.find(first), std::string::npos) << warned;

  // Re-attaching the same path is not a displacement: no warning.
  ::testing::internal::CaptureStderr();
  SolveCache::attach_persistent_file(cache, second);
  EXPECT_EQ(::testing::internal::GetCapturedStderr(), "");
}

}  // namespace
}  // namespace tpcool::core
