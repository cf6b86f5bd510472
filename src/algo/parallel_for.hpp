// Chunked parallel loops over index ranges.
//
//   parallel_for(tm, 0, n, [&](std::size_t i) { ... });                 // auto chunk
//   parallel_for(tm, 0, n, fn, algo::static_chunk{4096});
//   parallel_for(tm, 0, n, fn, algo::lazy_chunk{});    // no grain parameter
//
// Each chunk becomes one task; the chunking policy is the task-granularity
// dial. The lazy policy starts with one coarse task per worker and splits
// running tasks on demand (algo/splittable.hpp) — closed-loop granularity
// with no grain parameter at all, paper §VI's stated goal. Exceptions from
// `fn` propagate to the caller (first one wins; the remaining chunks
// still drain).
#pragma once

#include <atomic>
#include <exception>

#include "algo/chunking.hpp"
#include "algo/splittable.hpp"
#include "sync/latch.hpp"
#include "sync/spinlock.hpp"
#include "threads/runtime.hpp"
#include "threads/thread_manager.hpp"

namespace gran::algo {

// Applies fn(i) for every i in [first, last) using `policy` chunking.
template <typename F>
void parallel_for(thread_manager& tm, std::size_t first, std::size_t last, F&& fn,
                  const chunking& policy = auto_chunk{}) {
  if (first >= last) return;
  if (const auto* lazy = std::get_if<lazy_chunk>(&policy)) {
    // Demand-driven: coarse per-worker blocks, split only when the runtime
    // observes starvation. No grain parameter.
    core::split_controller ctl(lazy->options);
    splittable_for(tm, ctl, first, last, fn, lazy->initial_tasks);
    return;
  }

  // One task per chunk; the first exception is recorded and the rest of the
  // chunks skip their items. Each chunk is hinted to the worker whose NUMA
  // domain owns its slice of the index space (home_worker_for_block), a
  // mapping that stays stable across chunk sizes so repeated loops over the
  // same data keep touching the same domains. The hint is advisory — any
  // worker may still steal the chunk.
  const std::size_t items = last - first;
  const std::size_t chunk = resolve_chunk(policy, items, tm.num_workers());
  std::atomic<bool> failed{false};
  std::exception_ptr error;
  spinlock error_guard;
  latch done(static_cast<std::int64_t>((items + chunk - 1) / chunk));
  for (std::size_t lo = first; lo < last; lo += chunk) {
    const std::size_t hi = std::min(last, lo + chunk);
    const int home = tm.home_worker_for_block(lo - first, items);
    tm.spawn_on(
        home,
        [&, lo, hi] {
          try {
            if (!failed.load(std::memory_order_relaxed))
              for (std::size_t i = lo; i < hi; ++i) fn(i);
          } catch (...) {
            if (!failed.exchange(true, std::memory_order_acq_rel)) {
              error_guard.lock();
              error = std::current_exception();
              error_guard.unlock();
            }
          }
          done.count_down();
        },
        task_priority::normal, "parallel_for");
  }
  done.wait();
  if (failed.load(std::memory_order_acquire) && error) std::rethrow_exception(error);
}

// Convenience overload on the resolved default manager.
template <typename F>
void parallel_for(std::size_t first, std::size_t last, F&& fn,
                  const chunking& policy = auto_chunk{}) {
  parallel_for(resolve_manager(), first, last, std::forward<F>(fn), policy);
}

}  // namespace gran::algo
