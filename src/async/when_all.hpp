// when_all / when_any — readiness composition over sets of futures.
//
// Together with future::then these are HPX's "additional facilities to
// compose Futures sequentially and in parallel" (§I-C) from which the
// benchmark builds its dependency tree. Since gran futures are shared,
// when_all returns future<void>: callers keep their own (cheap) copies of
// the inputs and read them after the signal.
#pragma once

#include <atomic>
#include <cstddef>
#include <memory>
#include <vector>

#include "async/future.hpp"

namespace gran {

namespace detail {

// when_all's single allocation: the result state and the countdown.
struct when_all_node {
  explicit when_all_node(std::size_t n) : remaining(n) {}
  shared_state<void> state;
  std::atomic<std::size_t> remaining;

  void arrive() {
    if (remaining.fetch_sub(1, std::memory_order_acq_rel) == 1) state.set_value();
  }
};

template <typename T>
void when_all_wire(const std::shared_ptr<when_all_node>& node, const future<T>& f) {
  GRAN_ASSERT_MSG(f.valid(), "when_all over an invalid future");
  f.on_ready([node] { node->arrive(); });
}

}  // namespace detail

// Ready when every input is ready (exceptions count as ready; inspect the
// inputs afterwards).
template <typename T>
future<void> when_all(const std::vector<future<T>>& futures) {
  if (futures.empty()) return make_ready_future();
  auto node = std::make_shared<detail::when_all_node>(futures.size());
  future<void> result(detail::state_of(node));
  for (const auto& f : futures) detail::when_all_wire(node, f);
  return result;
}

template <typename... Ts>
future<void> when_all(const future<Ts>&... futures) {
  constexpr std::size_t n = sizeof...(Ts);
  if constexpr (n == 0) {
    return make_ready_future();
  } else {
    auto node = std::make_shared<detail::when_all_node>(n);
    future<void> result(detail::state_of(node));
    (detail::when_all_wire(node, futures), ...);
    return result;
  }
}

// Ready when the first input is ready; the value is that input's index.
template <typename T>
future<std::size_t> when_any(const std::vector<future<T>>& futures) {
  GRAN_ASSERT_MSG(!futures.empty(), "when_any over an empty set");
  struct node {
    detail::shared_state<std::size_t> state;
    std::atomic<bool> fired{false};
  };
  auto n = std::make_shared<node>();
  future<std::size_t> result(detail::state_of(n));
  for (std::size_t i = 0; i < futures.size(); ++i) {
    GRAN_ASSERT_MSG(futures[i].valid(), "when_any over an invalid future");
    futures[i].on_ready([n, i] {
      if (!n->fired.exchange(true, std::memory_order_acq_rel)) n->state.set_value(i);
    });
  }
  return result;
}

}  // namespace gran
