#pragma once
/// \file bench_flags.hpp
/// \brief Shared command-line handling for the bench binaries: a `--threads N`
///        flag (overrides TPCOOL_NUM_THREADS) so CI and local runs pin the
///        solver thread count reproducibly, a `--cache-file PATH` flag
///        (overrides TPCOOL_SOLVE_CACHE_FILE) that warms the process-global
///        solve cache from a snapshot and atomically saves it back at exit,
///        and a `--trace-file PATH` flag (overrides TPCOOL_TRACE_FILE) that
///        enables telemetry and exports a Chrome trace at exit (see
///        docs/TRACING.md).

#include <cstdlib>
#include <iostream>
#include <string>

#include "tpcool/core/solve_cache.hpp"
#include "tpcool/util/telemetry.hpp"
#include "tpcool/util/thread_pool.hpp"

namespace tpcool::bench {

/// Consume `--threads N` (or `--threads=N`) from argv, resize the global
/// solver pool accordingly, and compact argv so downstream parsers (e.g.
/// Google Benchmark) never see the flag. Returns the thread count in use.
inline std::size_t apply_threads_flag(int& argc, char** argv) {
  int out = 1;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    std::string value;
    if (arg == "--threads") {
      if (i + 1 >= argc) {
        std::cerr << "--threads expects a value\n";
        std::exit(2);
      }
      value = argv[++i];
    } else if (arg.rfind("--threads=", 0) == 0) {
      value = arg.substr(10);
    } else {
      argv[out++] = argv[i];
      continue;
    }
    const long n = std::strtol(value.c_str(), nullptr, 10);
    if (n < 1) {
      std::cerr << "--threads expects a positive integer, got '" << value
                << "'\n";
      std::exit(2);
    }
    tpcool::util::ThreadPool::set_global_thread_count(
        static_cast<std::size_t>(n));
  }
  argc = out;
  argv[argc] = nullptr;  // keep the argv[argc] == NULL contract
  return tpcool::util::ThreadPool::global().thread_count();
}

/// Consume `--cache-file PATH` (or `--cache-file=PATH`) from argv and attach
/// the process-global SolveCache to that snapshot: load it now if it exists
/// (a corrupt file warns and starts cold), atomically save at exit.  Compacts
/// argv like apply_threads_flag.  Returns the path ("" when the flag is
/// absent).  Because loaded values are pure functions of their keys, a
/// snapshot-warmed run is bit-identical to a cold one — only faster.
inline std::string apply_cache_file_flag(int& argc, char** argv) {
  int out = 1;
  std::string path;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg == "--cache-file") {
      if (i + 1 >= argc) {
        std::cerr << "--cache-file expects a path\n";
        std::exit(2);
      }
      path = argv[++i];
    } else if (arg.rfind("--cache-file=", 0) == 0) {
      path = arg.substr(13);
    } else {
      argv[out++] = argv[i];
      continue;
    }
    if (path.empty()) {
      std::cerr << "--cache-file expects a non-empty path\n";
      std::exit(2);
    }
  }
  argc = out;
  argv[argc] = nullptr;  // keep the argv[argc] == NULL contract
  if (!path.empty()) {
    tpcool::core::SolveCache::attach_persistent_file(
        tpcool::core::SolveCache::global(), path);
  }
  return path;
}

/// Consume `--trace-file PATH` (or `--trace-file=PATH`) from argv, enable
/// telemetry, and arm a Chrome-trace export to PATH (plus the metrics
/// snapshot to PATH.metrics.json) at process exit — replacing any path a
/// TPCOOL_TRACE_FILE env set (last wins, like the cache attach).  Compacts
/// argv like apply_threads_flag.  Returns the path ("" when the flag is
/// absent).  Telemetry never feeds back into results: a traced run's
/// digests are bit-identical to an untraced one.
inline std::string apply_trace_file_flag(int& argc, char** argv) {
  int out = 1;
  std::string path;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg == "--trace-file") {
      if (i + 1 >= argc) {
        std::cerr << "--trace-file expects a path\n";
        std::exit(2);
      }
      path = argv[++i];
    } else if (arg.rfind("--trace-file=", 0) == 0) {
      path = arg.substr(13);
    } else {
      argv[out++] = argv[i];
      continue;
    }
    if (path.empty()) {
      std::cerr << "--trace-file expects a non-empty path\n";
      std::exit(2);
    }
  }
  argc = out;
  argv[argc] = nullptr;  // keep the argv[argc] == NULL contract
  if (!path.empty()) {
    tpcool::util::Telemetry::arm_process_trace(path);
  }
  return path;
}

}  // namespace tpcool::bench
