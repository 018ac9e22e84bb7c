#pragma once
/// \file parallel_map.hpp
/// \brief Deterministic fixed-grain parallel fan-out over independent tasks.
///
/// The generic engine under `core::parallel_map`: it lives in util/ so that
/// layers below core (e.g. the thermosyphon design optimizer) can fan their
/// own sweeps out over the global ThreadPool without depending on the
/// experiment pipelines.
///
/// Determinism discipline:
///  - Tasks are split into chunks on fixed boundaries derived only from
///    (count, grain) — never from the thread count.
///  - Each chunk builds its own context via `make_context(chunk)`, so no
///    mutable state is shared across chunks; within a chunk, tasks run in
///    index order.
///  - Results land in a pre-sized vector by task index: result order is the
///    serial order regardless of which thread ran what.
/// Together: any thread count, including TPCOOL_NUM_THREADS=1, produces
/// bit-identical results.

#include <cstddef>
#include <exception>
#include <vector>

#include "tpcool/util/error.hpp"
#include "tpcool/util/thread_pool.hpp"

namespace tpcool::util {

/// Deterministic parallel map over `count` independent tasks.
///
/// Splits [0, count) into chunks of `grain` tasks, runs
/// `make_context(chunk_index)` once per chunk and
/// `task(context, task_index)` for every task of the chunk in index order,
/// on the global ThreadPool.  The first exception (in chunk order) is
/// rethrown after all chunks finish.
///
/// `grain` trades context-construction overhead against parallel width and
/// must be a fixed constant at each call site — deriving it from the thread
/// count would change chunk boundaries (and with them any per-context
/// state) across machines.
template <typename Result, typename MakeContext, typename Task>
std::vector<Result> parallel_map(std::size_t count, std::size_t grain,
                                 MakeContext&& make_context, Task&& task) {
  TPCOOL_REQUIRE(grain >= 1, "parallel_map needs grain >= 1");
  std::vector<Result> results(count);
  if (count == 0) return results;
  const std::size_t chunk_count = (count + grain - 1) / grain;
  std::vector<std::exception_ptr> errors(chunk_count);
  util::ThreadPool::global().parallel_for(
      0, count, grain, [&](std::size_t lo, std::size_t hi) {
        const std::size_t chunk = lo / grain;
        try {
          auto context = make_context(chunk);
          for (std::size_t i = lo; i < hi; ++i) {
            results[i] = task(context, i);
          }
        } catch (...) {
          // Worker bodies must not throw (the pool would terminate); park
          // the error and rethrow deterministically on the caller.
          errors[chunk] = std::current_exception();
        }
      });
  for (std::exception_ptr& error : errors) {
    if (error) std::rethrow_exception(error);
  }
  return results;
}

}  // namespace tpcool::util
