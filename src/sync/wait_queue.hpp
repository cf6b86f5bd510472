// Waiter bookkeeping shared by all blocking primitives.
//
// A waiter is either a task (suspended cooperatively — the worker keeps
// running other tasks, paper §I-B) or an external OS thread (parked on a
// condition variable). The owning primitive serializes access with its own
// spinlock; wait_queue itself is not thread-safe.
//
// Entries are intrusive and live in the waiter's own frame, so waiting
// never allocates and an idle queue is two null pointers. Because the entry
// dies with the wait, waking a task parked in a primitive is reserved to
// that primitive (thread_manager::wake): a wake from elsewhere would let
// the waiter return while its entry is still linked.
//
// Task-wait protocol (race-free with task::wake, see task.hpp):
//     this_task::prepare_suspend();
//     lock primitive;
//     if (condition already satisfied) { unlock; this_task::cancel_suspend(); }
//     else { wait_entry me(current); wq.push(me); unlock;
//            this_task::commit_suspend(); }
#pragma once

#include <chrono>
#include <condition_variable>
#include <mutex>
#include <utility>

#include "threads/thread_manager.hpp"
#include "util/assert.hpp"

namespace gran {

// Stack-allocated parking slot for a non-worker thread.
class external_waiter {
 public:
  void wait() {
    std::unique_lock<std::mutex> lock(mutex_);
    cv_.wait(lock, [this] { return notified_; });
  }

  // Returns true if notified, false on timeout.
  template <typename Clock, typename Duration>
  bool wait_until(std::chrono::time_point<Clock, Duration> deadline) {
    std::unique_lock<std::mutex> lock(mutex_);
    return cv_.wait_until(lock, deadline, [this] { return notified_; });
  }

  void notify() {
    // Notify *while holding* the mutex: the waiter cannot return from
    // wait() (and destroy this object) until we release it, so cv_ stays
    // valid for the notify call.
    std::lock_guard<std::mutex> lock(mutex_);
    notified_ = true;
    cv_.notify_one();
  }

 private:
  std::mutex mutex_;
  std::condition_variable cv_;
  bool notified_ = false;
};

// One waiter's link in a wait_queue, owned by the waiter (a local in its
// wait function). It must stay alive until it has left the queue: either a
// notifier dispatched it — the notifier reads the entry only *before*
// waking the waiter — or the waiter removed it under the owner's lock. A
// waiter therefore never returns from a wait while its entry may still be
// queued; debug builds check this on destruction.
class wait_entry {
 public:
  explicit wait_entry(task* t) noexcept : task_(t) {}
  explicit wait_entry(external_waiter* w) noexcept : external_(w) {}
  wait_entry(const wait_entry&) = delete;
  wait_entry& operator=(const wait_entry&) = delete;
  ~wait_entry() { GRAN_DEBUG_ASSERT(!queued_); }

 private:
  friend class wait_queue;
  task* task_ = nullptr;
  external_waiter* external_ = nullptr;
  wait_entry* next_ = nullptr;
  // Linked into a queue (a primitive's or a detached one). Set by push,
  // cleared by pop, remove and dispatch.
  bool queued_ = false;
};

// FIFO of wait entries (a singly linked list with a tail pointer).
class wait_queue {
 public:
  wait_queue() = default;
  wait_queue(wait_queue&& other) noexcept
      : head_(std::exchange(other.head_, nullptr)),
        tail_(std::exchange(other.tail_, nullptr)) {}
  wait_queue& operator=(wait_queue&& other) noexcept {
    GRAN_ASSERT_MSG(empty(), "overwriting a wait_queue that still has waiters");
    head_ = std::exchange(other.head_, nullptr);
    tail_ = std::exchange(other.tail_, nullptr);
    return *this;
  }
  wait_queue(const wait_queue&) = delete;
  wait_queue& operator=(const wait_queue&) = delete;

  bool empty() const noexcept { return head_ == nullptr; }

  void push(wait_entry& e) noexcept {
    GRAN_DEBUG_ASSERT(!e.queued_);
    e.queued_ = true;
    e.next_ = nullptr;
    if (tail_ != nullptr) {
      tail_->next_ = &e;
    } else {
      head_ = &e;
    }
    tail_ = &e;
  }

  // Removes a specific waiter (timeout/interrupt paths). Returns false when
  // it had already been removed by a notifier.
  bool remove(const wait_entry& e) noexcept {
    wait_entry* prev = nullptr;
    for (wait_entry* it = head_; it != nullptr; prev = it, it = it->next_) {
      if (it != &e) continue;
      (prev != nullptr ? prev->next_ : head_) = it->next_;
      if (tail_ == it) tail_ = prev;
      it->queued_ = false;
      return true;
    }
    return false;
  }

  // Wakes the oldest waiter. Returns false when the queue was empty.
  //
  // DESTRUCTION-RACE WARNING: a released waiter may immediately destroy the
  // primitive that owns this queue. Only call notify_* with the owner's
  // lock held when the owner is guaranteed to outlive the wake (e.g. a
  // shared_state kept alive by the caller's shared_ptr). Otherwise use
  // detach()/detach_all() under the lock and dispatch_all() after
  // releasing it.
  bool notify_one() {
    wait_entry* e = pop();
    if (e == nullptr) return false;
    dispatch(*e);
    return true;
  }

  void notify_all() { detach_all().dispatch_all(); }

  // Moves out up to `n` waiters (all by default) for dispatch outside the
  // owner's critical section.
  wait_queue detach_all() noexcept { return std::move(*this); }

  wait_queue detach(std::size_t n) noexcept {
    wait_queue q;
    while (n-- > 0) {
      wait_entry* e = pop();
      if (e == nullptr) break;
      q.push(*e);
    }
    return q;
  }

  // Wakes everything previously detached. The queue being dispatched is a
  // local one, so no lock is needed.
  void dispatch_all() {
    wait_entry* e = std::exchange(head_, nullptr);
    tail_ = nullptr;
    while (e != nullptr) {
      wait_entry* const next = e->next_;  // `e` may die once woken
      e->queued_ = false;
      dispatch(*e);
      e = next;
    }
  }

 private:
  wait_entry* pop() noexcept {
    wait_entry* e = head_;
    if (e != nullptr) {
      head_ = e->next_;
      if (head_ == nullptr) tail_ = nullptr;
      e->queued_ = false;
    }
    return e;
  }

  static void dispatch(const wait_entry& e) {
    if (task* const t = e.task_) {
      // Route through the task's owning manager so wakes work from any
      // thread — another task's worker or a plain OS thread.
      thread_manager* tm = t->owner();
      GRAN_ASSERT_MSG(tm != nullptr, "waking a task with no owning manager");
      tm->wake(t);
    } else {
      e.external_->notify();
    }
  }

  wait_entry* head_ = nullptr;
  wait_entry* tail_ = nullptr;
};

}  // namespace gran
