// gran::dataflow — the data-driven task launcher of the benchmark.
//
// dataflow(f, fut...) spawns f(fut...) as a new task as soon as *all* input
// futures are ready (f receives the ready futures themselves, HPX-style).
// If f returns a future it is unwrapped. This is the facility with which
// HPX-Stencil "creates task dependencies that mirror the data dependencies
// described by the original algorithm" (paper §I-C): the returned future is
// a node of the execution tree, the inputs are its incoming edges.
#pragma once

#include <cstddef>
#include <memory>
#include <tuple>
#include <type_traits>
#include <vector>

#include "async/future.hpp"

namespace gran {

template <typename F, typename... Ts>
auto dataflow_on(thread_manager& tm, task_priority priority, F&& f,
                 future<Ts>... inputs) {
  using R = std::invoke_result_t<std::decay_t<F>, future<Ts>&...>;
  using node_t = detail::dataflow_node<R, std::decay_t<F>, std::tuple<future<Ts>...>>;

  // One arrival per input plus the builder's own, released once every input
  // is wired: the body cannot start (and release the inputs) before that.
  auto node = std::make_shared<node_t>(std::forward<F>(f),
                                       std::tuple<future<Ts>...>(std::move(inputs)...),
                                       sizeof...(Ts) + 1, tm, priority, -1, "dataflow");
  auto result = future<typename node_t::U>(detail::state_of(node));
  std::size_t arrived = 1;
  std::apply([&](const auto&... in) { (node_t::wire(node, in, arrived), ...); },
             node->inputs);
  node_t::arrive(std::move(node), arrived);
  return result;
}

template <typename F, typename... Ts>
auto dataflow(F&& f, future<Ts>... inputs) {
  return dataflow_on(resolve_manager(), task_priority::normal, std::forward<F>(f),
                     std::move(inputs)...);
}

template <typename F, typename... Ts>
auto dataflow(task_priority priority, F&& f, future<Ts>... inputs) {
  return dataflow_on(resolve_manager(), priority, std::forward<F>(f),
                     std::move(inputs)...);
}

// Vector form: f receives const std::vector<future<T>>&. The _on variant
// pins the spawn to an explicit manager (the graph executor futurizes
// whole DAGs on a freshly built pool this way). `worker_hint` >= 0 asks the
// policy to queue the fired task on that worker (NUMA-aware home placement
// — see thread_manager::home_worker_for_block); -1 keeps the default
// spawn-local routing.
template <typename F, typename T>
auto dataflow_all_on(thread_manager& manager, task_priority priority, F&& f,
                     std::vector<future<T>> inputs, int worker_hint = -1) {
  using R = std::invoke_result_t<std::decay_t<F>, const std::vector<future<T>>&>;
  using node_t = detail::dataflow_node<R, std::decay_t<F>, std::vector<future<T>>>;

  const std::size_t n = inputs.size();
  auto node = std::make_shared<node_t>(std::forward<F>(f), std::move(inputs), n + 1,
                                       manager, priority, worker_hint, "dataflow");
  auto result = future<typename node_t::U>(detail::state_of(node));
  // The builder's arrival is still held, so node->inputs stays put while
  // it is read here.
  std::size_t arrived = 1;
  for (const auto& in : node->inputs) node_t::wire(node, in, arrived);
  node_t::arrive(std::move(node), arrived);
  return result;
}

template <typename F, typename T>
auto dataflow_all(F&& f, std::vector<future<T>> inputs,
                  task_priority priority = task_priority::normal) {
  return dataflow_all_on(resolve_manager(), priority, std::forward<F>(f),
                         std::move(inputs));
}

}  // namespace gran
