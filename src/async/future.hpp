// future / promise.
//
// gran::future has *shared-future* semantics (copyable; get() returns a
// const reference) because the paper's benchmark wires each partition's
// future into the dependency tree of up to three consumers per time step —
// exactly how HPX-Stencil uses hpx::shared_future. An alias shared_future
// exists for intent-revealing code.
#pragma once

#include <atomic>
#include <cstddef>
#include <memory>
#include <tuple>
#include <type_traits>
#include <utility>

#include "async/shared_state.hpp"
#include "threads/runtime.hpp"
#include "threads/thread_manager.hpp"

namespace gran {

template <typename T>
class future;

namespace detail {

// Routes the result of `call` (value, void return, or thrown exception)
// into a shared state.
template <typename R, typename F>
void fulfill_state(shared_state<R>& st, F&& call) {
  if constexpr (std::is_void_v<R>) {
    try {
      std::forward<F>(call)();
      st.set_value();
    } catch (...) {
      st.set_exception(std::current_exception());
    }
  } else {
    try {
      st.set_value(std::forward<F>(call)());
    } catch (...) {
      st.set_exception(std::current_exception());
    }
  }
}

// `call` returns a future<U>; the outer state adopts its outcome (future
// unwrapping). `st` is shared because the adoption may outlive the caller.
template <typename U, typename F>
void fulfill_state_unwrapped(std::shared_ptr<shared_state<U>> st, F&& call);

// Result-type unwrapping: future<future<U>> collapses to future<U>.
template <typename R>
struct unwrap_result {
  using type = R;
  static constexpr bool is_future = false;
};
template <typename U>
struct unwrap_result<future<U>> {
  using type = U;
  static constexpr bool is_future = true;
};

}  // namespace detail

template <typename T>
class future {
 public:
  using state_type = detail::shared_state<T>;

  // Default-constructed futures are invalid (valid() == false).
  future() = default;
  explicit future(std::shared_ptr<state_type> state) : state_(std::move(state)) {}

  bool valid() const noexcept { return state_ != nullptr; }
  bool is_ready() const noexcept { return state_ && state_->is_ready(); }
  bool has_exception() const noexcept { return state_ && state_->has_exception(); }

  void wait() const {
    GRAN_ASSERT_MSG(valid(), "wait on invalid future");
    state_->wait();
  }

  // Timed waits (std::future_status::ready or ::timeout). Tasks suspend
  // cooperatively with a timer-armed deadline; external threads park.
  std::future_status wait_until(timer_service::clock::time_point deadline) const {
    GRAN_ASSERT_MSG(valid(), "wait_until on invalid future");
    return state_->wait_until(deadline) ? std::future_status::ready
                                        : std::future_status::timeout;
  }

  template <typename Rep, typename Period>
  std::future_status wait_for(std::chrono::duration<Rep, Period> d) const {
    return wait_until(timer_service::clock::now() + d);
  }

  // Blocks until ready; returns the value (const reference for non-void T —
  // shared semantics) or rethrows the stored exception.
  decltype(auto) get() const {
    GRAN_ASSERT_MSG(valid(), "get on invalid future");
    if constexpr (std::is_void_v<T>) {
      state_->get();
    } else {
      return static_cast<const T&>(state_->get());
    }
  }

  // Attaches a continuation `f(future<T>)` that runs as a new task once
  // this future is ready; returns the continuation's future (unwrapped if
  // `f` itself returns a future). Exceptions from `f` travel into the
  // returned future.
  template <typename F>
  auto then(F&& f, task_priority priority = task_priority::normal) const;

  // Low-level hook used by when_all/dataflow: run `fn` (non-blocking!) when
  // ready, inline if already ready.
  void on_ready(unique_function<void()> fn) const {
    GRAN_ASSERT_MSG(valid(), "on_ready on invalid future");
    state_->add_continuation(std::move(fn));
  }

  const std::shared_ptr<state_type>& state() const noexcept { return state_; }

 private:
  std::shared_ptr<state_type> state_;
};

// Intent-revealing alias: every gran::future already has shared semantics.
template <typename T>
using shared_future = future<T>;

template <typename T>
class promise {
 public:
  promise() : state_(std::make_shared<detail::shared_state<T>>()) {}
  promise(promise&&) noexcept = default;
  promise& operator=(promise&&) noexcept = default;
  promise(const promise&) = delete;
  promise& operator=(const promise&) = delete;

  future<T> get_future() const { return future<T>(state_); }

  template <typename... Args>
  void set_value(Args&&... args) {
    state_->set_value(std::forward<Args>(args)...);
  }

  void set_exception(std::exception_ptr error) { state_->set_exception(std::move(error)); }

  const std::shared_ptr<detail::shared_state<T>>& state() const noexcept { return state_; }

 private:
  std::shared_ptr<detail::shared_state<T>> state_;
};

// Ready-made futures.
template <typename T, typename... Args>
future<T> make_ready_future(Args&&... args) {
  promise<T> p;
  p.set_value(std::forward<Args>(args)...);
  return p.get_future();
}

inline future<void> make_ready_future() {
  promise<void> p;
  p.set_value();
  return p.get_future();
}

template <typename T>
future<T> make_exceptional_future(std::exception_ptr error) {
  promise<T> p;
  p.set_exception(std::move(error));
  return p.get_future();
}

namespace detail {

template <typename U, typename F>
void fulfill_state_unwrapped(std::shared_ptr<shared_state<U>> st, F&& call) {
  future<U> inner;
  try {
    inner = std::forward<F>(call)();
  } catch (...) {
    st->set_exception(std::current_exception());
    return;
  }
  if (!inner.valid()) {
    st->set_exception(
        std::make_exception_ptr(std::future_error(std::future_errc::no_state)));
    return;
  }
  inner.on_ready([st = std::move(st), inner] {
    if (inner.has_exception()) {
      st->set_exception(inner.state()->exception());
    } else if constexpr (std::is_void_v<U>) {
      st->set_value();
    } else {
      st->set_value(inner.get());
    }
  });
}

template <typename>
struct is_tuple : std::false_type {};
template <typename... Ts>
struct is_tuple<std::tuple<Ts...>> : std::true_type {};

// The state embedded in a node's control block, sharing the block's
// ownership: one allocation holds the state and everything the node needs
// to produce it.
template <typename Node>
auto state_of(const std::shared_ptr<Node>& node) {
  using state_t = std::remove_reference_t<decltype(node->state)>;
  return std::shared_ptr<state_t>(node, &node->state);
}

// One node of the execution tree behind dataflow() and future::then(): the
// result state, the body, its inputs and the countdown to firing share a
// single allocation. Every input continuation and the task body capture
// only the node. `Inputs` is a tuple of futures (passed to the body as
// lvalues) or a vector of futures (passed as a const reference).
template <typename R, typename Fn, typename Inputs>
struct dataflow_node {
  using U = typename unwrap_result<R>::type;

  dataflow_node(Fn fn, Inputs in, std::size_t arrivals, thread_manager& manager,
                task_priority prio, int hint, const char* what)
      : f(std::move(fn)),
        inputs(std::move(in)),
        remaining(arrivals),
        tm(&manager),
        priority(prio),
        worker_hint(hint),
        description(what) {}

  shared_state<U> state;
  Fn f;
  Inputs inputs;
  std::atomic<std::size_t> remaining;
  thread_manager* tm;
  task_priority priority;
  int worker_hint;
  const char* description;

  // Counts `n` arrivals; the last one spawns the body as a task.
  static void arrive(std::shared_ptr<dataflow_node> self, std::size_t n = 1) {
    if (self->remaining.fetch_sub(n, std::memory_order_acq_rel) != n) return;
    thread_manager& manager = *self->tm;
    const int hint = self->worker_hint;
    const task_priority prio = self->priority;
    const char* what = self->description;
    manager.spawn_on(hint, [self = std::move(self)] { run(self); }, prio, what);
  }

  // Wires one input: an input that is already ready is counted into the
  // builder's arrival instead of costing a continuation.
  template <typename T>
  static void wire(const std::shared_ptr<dataflow_node>& self, const future<T>& in,
                   std::size_t& arrived) {
    GRAN_ASSERT_MSG(in.valid(), "dataflow over an invalid future");
    if (in.is_ready()) {
      ++arrived;
      return;
    }
    in.on_ready([self]() mutable { arrive(std::move(self)); });
  }

  static void run(const std::shared_ptr<dataflow_node>& self) {
    auto call = [&self]() -> R {
      // The inputs are released with the call, before the result is
      // published: a held result must not pin the graph history behind it.
      // A vector keeps its buffer, which goes back with the node.
      struct release_inputs {
        Inputs& in;
        ~release_inputs() {
          if constexpr (is_tuple<Inputs>::value) {
            in = Inputs{};
          } else {
            in.clear();
          }
        }
      } release{self->inputs};
      if constexpr (is_tuple<Inputs>::value) {
        return std::apply([&self](auto&... x) -> R { return self->f(x...); }, self->inputs);
      } else {
        return self->f(std::as_const(self->inputs));
      }
    };
    if constexpr (unwrap_result<R>::is_future) {
      fulfill_state_unwrapped(state_of(self), call);
    } else {
      fulfill_state<U>(self->state, call);
    }
  }
};

}  // namespace detail

template <typename T>
template <typename F>
auto future<T>::then(F&& f, task_priority priority) const {
  GRAN_ASSERT_MSG(valid(), "then on invalid future");
  using R = std::invoke_result_t<std::decay_t<F>, future<T>>;
  using node_t = detail::dataflow_node<R, std::decay_t<F>, std::tuple<future<T>>>;
  // Two arrivals: this future's readiness and the builder's own.
  auto node = std::make_shared<node_t>(std::forward<F>(f), std::tuple<future<T>>(*this),
                                       2, resolve_manager(), priority, -1,
                                       "future::then");
  auto result = future<typename node_t::U>(detail::state_of(node));
  std::size_t arrived = 1;
  node_t::wire(node, *this, arrived);
  node_t::arrive(std::move(node), arrived);
  return result;
}

// Unwraps a future<future<U>> into a future<U>.
template <typename U>
future<U> unwrap(future<future<U>> outer) {
  auto st = std::make_shared<detail::shared_state<U>>();
  outer.on_ready([outer, st] {
    if (outer.has_exception()) {
      st->set_exception(outer.state()->exception());
      return;
    }
    detail::fulfill_state_unwrapped(st, [&] { return outer.get(); });
  });
  return future<U>(st);
}

}  // namespace gran
