// Shared state behind future/promise.
//
// Holds exactly one of {nothing, value, exception}; supports cooperative
// waiting (tasks suspend, external threads park) and attached continuations
// (run by the fulfilling thread, in registration order, outside the state's
// lock). Continuations are the mechanism dataflow/when_all/then use to turn
// data dependencies into the runtime-generated execution tree the paper
// describes (§I-C).
//
// A state allocates nothing of its own: waiters queue intrusively from
// their own frames, and the first few continuations sit in inline slots
// (a heat-ring partition has three consumers). Nodes that produce a state
// (dataflow, then, async, when_all) embed it in their single control block.
#pragma once

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <exception>
#include <future>  // std::future_error / future_errc
#include <optional>
#include <utility>
#include <variant>
#include <vector>

#include "sync/spinlock.hpp"
#include "sync/timer_service.hpp"
#include "sync/wait_queue.hpp"
#include "util/assert.hpp"
#include "util/unique_function.hpp"

namespace gran::detail {

template <typename T>
struct state_storage {
  using type = T;
};
template <>
struct state_storage<void> {
  using type = std::monostate;
};

template <typename T>
class shared_state {
 public:
  using storage_t = typename state_storage<T>::type;
  using continuation_fn = unique_function<void()>;
  // Continuations held without a spill allocation.
  static constexpr std::size_t k_inline_continuations = 3;

  shared_state() = default;
  shared_state(const shared_state&) = delete;
  shared_state& operator=(const shared_state&) = delete;

  bool is_ready() const noexcept { return ready_.load(std::memory_order_acquire); }

  // --- producer side ------------------------------------------------------
  //
  // The caller keeps the state alive for the duration of the call (promises
  // and node blocks hold it): continuations run in place after the publish.

  template <typename... Args>
  void set_value(Args&&... args) {
    guard_.lock();
    if (ready_.load(std::memory_order_relaxed)) {
      guard_.unlock();
      throw std::future_error(std::future_errc::promise_already_satisfied);
    }
    value_.emplace(std::forward<Args>(args)...);
    publish_and_unlock();
  }

  void set_exception(std::exception_ptr error) {
    GRAN_ASSERT(error != nullptr);
    guard_.lock();
    if (ready_.load(std::memory_order_relaxed)) {
      guard_.unlock();
      throw std::future_error(std::future_errc::promise_already_satisfied);
    }
    error_ = std::move(error);
    publish_and_unlock();
  }

  // --- consumer side ------------------------------------------------------

  void wait() const {
    if (is_ready()) return;
    task* const t = thread_manager::current_task();
    if (t != nullptr) this_task::prepare_suspend();

    guard_.lock();
    if (ready_.load(std::memory_order_relaxed)) {
      guard_.unlock();
      if (t != nullptr) this_task::cancel_suspend();
      return;
    }
    if (t != nullptr) {
      wait_entry me(t);
      waiters_.push(me);
      guard_.unlock();
      // Only the publish wakes this entry, and readiness is final.
      this_task::commit_suspend();
      GRAN_DEBUG_ASSERT(is_ready());
    } else {
      external_waiter w;
      wait_entry me(&w);
      waiters_.push(me);
      guard_.unlock();
      w.wait();
    }
  }

  // Timed wait: blocks until ready or `deadline`. Returns true when the
  // state is ready (possibly having become ready exactly at wake-up).
  bool wait_until(timer_service::clock::time_point deadline) const {
    if (is_ready()) return true;
    task* const t = thread_manager::current_task();
    if (t == nullptr) {
      // External thread: a timed park, with stale-entry cleanup on timeout.
      for (;;) {
        external_waiter w;
        wait_entry me(&w);
        guard_.lock();
        if (ready_.load(std::memory_order_relaxed)) {
          guard_.unlock();
          return true;
        }
        if (timer_service::clock::now() >= deadline) {
          guard_.unlock();
          return false;
        }
        waiters_.push(me);
        guard_.unlock();
        if (w.wait_until(deadline)) return true;
        guard_.lock();
        const bool removed = waiters_.remove(me);
        guard_.unlock();
        // Not removed => a notifier popped us concurrently; it will (or
        // already did) call notify(), making the slot safe to destroy only
        // after that delivery: absorb it.
        if (!removed) w.wait();
        if (is_ready()) return true;
      }
    }
    // Task path: park with a cancellable timer wake racing the notifier.
    for (;;) {
      wait_entry me(t);
      this_task::prepare_suspend();
      guard_.lock();
      if (ready_.load(std::memory_order_relaxed)) {
        guard_.unlock();
        this_task::cancel_suspend();
        return true;
      }
      if (timer_service::clock::now() >= deadline) {
        guard_.unlock();
        this_task::cancel_suspend();
        return false;
      }
      waiters_.push(me);
      guard_.unlock();
      const wake_ticket ticket = timer_service::global().schedule_wake(t, deadline);
      this_task::commit_suspend();
      // Either the notifier or the timer woke us. Retire the timer claim
      // (waiting out an in-flight delivery) and drop a stale entry before
      // it leaves scope.
      wake_ticket_cancel(ticket);
      guard_.lock();
      waiters_.remove(me);
      guard_.unlock();
      if (is_ready()) return true;
      if (timer_service::clock::now() >= deadline) return false;
    }
  }

  // Blocks, then returns the stored value or rethrows the stored exception.
  const storage_t& get() const {
    wait();
    if (error_) std::rethrow_exception(error_);
    return *value_;
  }

  // True while some thread or task is blocked in wait()/wait_until(). A
  // test hook (it takes the lock): no runtime path needs it.
  bool has_waiters() const noexcept {
    guard_.lock();
    const bool any = !waiters_.empty();
    guard_.unlock();
    return any;
  }

  bool has_exception() const noexcept {
    return is_ready() && error_ != nullptr;
  }
  std::exception_ptr exception() const noexcept {
    return is_ready() ? error_ : nullptr;
  }

  // Runs `fn` when the state becomes ready. If it already is, `fn` runs
  // inline in the calling thread. `fn` must not block.
  void add_continuation(continuation_fn fn) {
    if (!is_ready()) {
      guard_.lock();
      if (!ready_.load(std::memory_order_relaxed)) {
        if (num_inline_ < k_inline_continuations) {
          inline_[num_inline_++] = std::move(fn);
        } else {
          spill_.push_back(std::move(fn));
        }
        guard_.unlock();
        return;
      }
      guard_.unlock();
    }
    fn();
  }

 private:
  // Called with guard_ held and the outcome stored.
  void publish_and_unlock() {
    ready_.store(true, std::memory_order_release);
    waiters_.notify_all();
    guard_.unlock();
    // Readiness is final, so nobody registers any more: the continuations
    // run in place, in registration order, each released right after it ran
    // (a held state must not keep its consumers alive).
    for (std::size_t i = 0; i < num_inline_; ++i) {
      inline_[i]();
      inline_[i] = nullptr;
    }
    if (!spill_.empty()) {
      for (continuation_fn& fn : spill_) fn();
      std::vector<continuation_fn>().swap(spill_);
    }
  }

  // What get() reads sits first, in the state's first cache line; the
  // continuation slots follow.
  mutable spinlock guard_;
  std::atomic<bool> ready_{false};
  std::uint8_t num_inline_ = 0;
  std::optional<storage_t> value_;
  std::exception_ptr error_;
  mutable wait_queue waiters_;
  continuation_fn inline_[k_inline_continuations];
  std::vector<continuation_fn> spill_;
};

}  // namespace gran::detail
