// Futurizes a parameterized task graph on the real runtime.
//
// One dataflow() node is constructed per task, consuming the futures of
// its step-1 dependence set — the generalization of the pattern
// stencil::run_futurized uses for the heat ring (which now calls this with
// the `nearest` spec and a partition payload). The tree is built step-major
// by one construction task on the pool — HPX-Stencil builds its graph
// inside hpx_main, itself an HPX thread — while the other workers already
// execute it. A row of at least 2 × min_slice_width nodes is split into
// slices that helper tasks build in parallel with the builder. A caller
// outside the pool blocks until the construction task is done; a caller
// already running on one of its workers builds inline. An optional
// construction window bounds live nodes exactly like
// stencil::params::max_steps_in_flight.
#pragma once

#include <algorithm>
#include <cstdint>
#include <memory>
#include <utility>
#include <vector>

#include "async/async.hpp"
#include "async/dataflow.hpp"
#include "graph/spec.hpp"
#include "perf/trace.hpp"
#include "sync/latch.hpp"

namespace gran::graph {

// Tags the currently running task with its DAG coordinate so the trace
// analyzer can map task ids back to graph nodes (perf/analysis.hpp). Called
// from inside the task body — one relaxed load + branch when tracing is off.
inline void trace_graph_node(std::uint32_t step, std::uint32_t point) noexcept {
  if (!perf::tracer::enabled()) return;
  thread_manager* tm = thread_manager::current();
  const int w = thread_manager::current_worker();
  const task* t = thread_manager::current_task();
  if (tm == nullptr || w < 0 || t == nullptr) return;
  perf::trace_emit(tm->worker(w).trace, perf::trace_kind::graph_node, w, t->id(),
                   perf::pack_graph_node(step, point));
}

template <typename T>
struct futurized_dag {
  std::vector<future<T>> last_row;  // ready futures of the final step
  std::uint64_t tasks = 0;          // dataflow nodes constructed
  std::uint64_t edges = 0;          // input futures wired
};

// Where graph tasks are queued when they fire:
//   spawn_local — wherever the last input completed (the dataflow default;
//     best for cache-hot compute kernels);
//   numa_block  — point p of a width-W row goes to
//     thread_manager::home_worker_for_block(p, W), so a task touching the
//     p-th block of node-interleaved data runs on a worker of the node that
//     owns the block (best for memory-bound kernels).
enum class placement { spawn_local, numa_block };

namespace detail {

// Blocks until every future of `row` is ready. Waiting on each in turn
// costs no allocation, unlike a when_all node. The last-built future goes
// first: it tends to complete last, so the waiter suspends a few times
// rather than once for each future it reaches ahead of the wavefront.
template <typename T>
void wait_row(const std::vector<future<T>>& row) {
  for (auto f = row.rbegin(); f != row.rend(); ++f) f->wait();
}

// Narrowest slice of a row that a helper task builds: a row splits only
// when every slice gets at least this many nodes, so the join it costs the
// builder stays small against the slice's construction time.
inline constexpr std::uint32_t min_slice_width = 256;

// Shared construction loop: builds rows `first_step` .. steps-1 over an
// existing `prev` row (empty when first_step == 0 — roots take no inputs).
// Runs on a worker of `tm` (see build_on_pool).
template <typename T, typename Fn>
futurized_dag<T> futurize_rows(thread_manager& tm, const graph_spec& g,
                               std::shared_ptr<Fn> body,
                               std::vector<future<T>> prev,
                               std::uint32_t first_step, std::size_t window,
                               task_priority priority, placement place) {
  futurized_dag<T> result;
  std::vector<std::vector<future<T>>> retired;  // rows awaiting the window

  // A row splits into one contiguous slice per worker, each at least
  // min_slice_width wide. A slice reads only the previous row, which is
  // complete when the row starts, and writes its own part of the current
  // one; the spec's dependencies() is const and stateless.
  struct slice {
    std::uint32_t lo = 0, hi = 0;
    std::vector<std::uint32_t> deps;
    std::uint64_t tasks = 0, edges = 0;
  };
  const std::uint32_t k =
      g.width >= 2 * min_slice_width
          ? std::min(static_cast<std::uint32_t>(tm.num_workers()),
                     g.width / min_slice_width)
          : 1;
  std::vector<slice> slices(k);
  for (std::uint32_t i = 0; i < k; ++i) {
    slices[i].lo = static_cast<std::uint32_t>(std::uint64_t{g.width} * i / k);
    slices[i].hi = static_cast<std::uint32_t>(std::uint64_t{g.width} * (i + 1) / k);
    slices[i].deps.reserve(g.max_fanin());
  }

  std::uint32_t t = first_step;
  std::vector<future<T>> cur;
  const auto build_slice = [&](slice& s) {
    for (std::uint32_t p = s.lo; p < s.hi; ++p) {
      g.dependencies(t, p, s.deps);
      std::vector<future<T>> inputs;
      inputs.reserve(s.deps.size());
      for (const std::uint32_t d : s.deps) inputs.push_back(prev[d]);
      s.edges += s.deps.size();
      ++s.tasks;
      const int hint = place == placement::numa_block
                           ? tm.home_worker_for_block(p, g.width)
                           : -1;
      cur[p] = dataflow_all_on(
          tm, priority,
          [body, t, p](const std::vector<future<T>>& in) {
            trace_graph_node(t, p);
            return (*body)(t, p, in);
          },
          std::move(inputs), hint);
    }
  };

  for (; t < g.steps; ++t) {
    cur = std::vector<future<T>>(g.width);
    if (k == 1) {
      build_slice(slices[0]);
    } else {
      // Helpers build slices 1..k-1 at high priority on the other workers
      // while the builder builds slice 0; the row is complete once all
      // have counted down. The join runs even if the builder's slice
      // throws, since the helpers reference this frame.
      latch done(k - 1);
      struct join_helpers {
        latch& l;
        ~join_helpers() { l.wait(); }
      } join{done};
      const int me = thread_manager::current_worker();
      for (std::uint32_t i = 1; i < k; ++i)
        tm.spawn_on(
            (me + static_cast<int>(i)) % tm.num_workers(),
            [&build_slice, &done, s = &slices[i]] {
              build_slice(*s);
              done.count_down();
            },
            task_priority::high, "graph-slice");
      build_slice(slices[0]);
    }
    if (!prev.empty()) {
      retired.push_back(std::move(prev));
      if (window > 0 && retired.size() > window) {
        wait_row(retired.front());
        retired.erase(retired.begin());
      }
    }
    prev = std::move(cur);
  }
  for (const slice& s : slices) {
    result.tasks += s.tasks;
    result.edges += s.edges;
  }

  // Wait for *every* task, newest row first: once the final row is done,
  // the older rows of a connected pattern are too, so waiting on them
  // costs no suspension. Rows of a disconnected pattern (trivial, some
  // random roots) may still outlive the final row's completion.
  wait_row(prev);
  for (auto row = retired.rbegin(); row != retired.rend(); ++row) wait_row(*row);
  result.last_row = std::move(prev);
  return result;
}

// Runs the construction loop `build` on a worker of `tm`. From a thread
// outside the pool, that is one task the caller blocks on: the builder
// then competes for the CPUs as an equal of the workers instead of
// starving beside them, and its spawns take the worker-local path.
template <typename T, typename Build>
futurized_dag<T> build_on_pool(thread_manager& tm, task_priority priority,
                               Build build) {
  if (thread_manager::current() == &tm) return build();
  futurized_dag<T> result;
  async_on(tm, priority, [&result, &build] { result = build(); }).get();
  return result;
}

}  // namespace detail

// Builds and executes graph `g` on `tm`. `fn` is the task body:
//
//   T fn(std::uint32_t step, std::uint32_t point,
//        const std::vector<future<T>>& inputs)
//
// where `inputs` are the ready futures of dependencies(step, point) in the
// spec's (ascending) order — empty for roots. Every task has completed
// when this returns; the spec should be validate()d beforehand. Called
// from outside `tm`'s workers, the construction runs as one extra task on
// `tm` (detail::build_on_pool). A row split into k slices adds k-1 helper
// tasks (detail::futurize_rows); `result.tasks` counts graph nodes only.
//
// `window` > 0 bounds live dataflow rows: construction of row t waits for
// row t-window-1 to finish (no barrier in the *execution* — the wavefront
// keeps pipelining inside the window).
template <typename T, typename Fn>
futurized_dag<T> futurize_dag(thread_manager& tm, const graph_spec& g, Fn fn,
                              std::size_t window = 0,
                              task_priority priority = task_priority::normal,
                              placement place = placement::spawn_local) {
  // Tasks may still be running when construction finishes; they share
  // ownership of the body instead of referencing this frame.
  auto body = std::make_shared<Fn>(std::move(fn));
  return detail::build_on_pool<T>(tm, priority, [&] {
    return detail::futurize_rows<T>(tm, g, std::move(body), std::vector<future<T>>{},
                                    /*first_step=*/0, window, priority, place);
  });
}

// Variant with a seed row: `seed` (size == g.width) stands in for step 0 —
// its futures are consumed by step 1's dependence sets, and only steps
// 1 .. steps-1 become tasks (result.tasks == width * (steps - 1)). This is
// how the heat stencil runs on the shared executor: the initial partitions
// are ready futures, not tasks, exactly like HPX-Stencil.
template <typename T, typename Fn>
futurized_dag<T> futurize_dag_seeded(thread_manager& tm, const graph_spec& g,
                                     Fn fn, std::vector<future<T>> seed,
                                     std::size_t window = 0,
                                     task_priority priority = task_priority::normal,
                                     placement place = placement::spawn_local) {
  auto body = std::make_shared<Fn>(std::move(fn));
  return detail::build_on_pool<T>(tm, priority, [&] {
    return detail::futurize_rows<T>(tm, g, std::move(body), std::move(seed),
                                    /*first_step=*/1, window, priority, place);
  });
}

}  // namespace gran::graph
