#pragma once
/// \file parallel_map.hpp
/// \brief Deterministic parallel fan-out over independent tasks.
///
/// The one fan-out primitive in tpcool: it lives in util/ so that layers
/// below core (e.g. the thermosyphon design optimizer) can fan their own
/// sweeps out over the global ThreadPool without depending on the
/// experiment pipelines.
///
/// Determinism discipline:
///  - `task(i)` runs exactly once per index and shares no mutable state
///    with the other tasks.
///  - Results land in a pre-sized vector by task index: result order is the
///    serial order regardless of which thread ran what.
/// Together: any thread count, including TPCOOL_NUM_THREADS=1, produces
/// bit-identical results.

#include <cstddef>
#include <exception>
#include <vector>

#include "tpcool/util/thread_pool.hpp"

namespace tpcool::util {

/// Deterministic parallel map over `count` independent tasks: runs
/// `task(i)` once for every i in [0, count) on the global ThreadPool and
/// returns the results in index order.  The exception of the lowest
/// failing index is rethrown after every task finishes.
template <typename Result, typename Task>
std::vector<Result> parallel_map(std::size_t count, Task&& task) {
  std::vector<Result> results(count);
  std::vector<std::exception_ptr> errors(count);
  ThreadPool::global().parallel_for(count, [&](std::size_t i) {
    try {
      results[i] = task(i);
    } catch (...) {
      // Worker bodies must not throw (the pool would terminate); park the
      // error and rethrow deterministically on the caller.
      errors[i] = std::current_exception();
    }
  });
  for (std::exception_ptr& error : errors) {
    if (error) std::rethrow_exception(error);
  }
  return results;
}

}  // namespace tpcool::util
