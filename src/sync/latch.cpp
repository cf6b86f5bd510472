#include "sync/latch.hpp"

#include "util/assert.hpp"

namespace gran {

latch::latch(std::int64_t expected) : count_(expected) {
  GRAN_ASSERT(expected >= 0);
}

void latch::count_down(std::int64_t n) {
  guard_.lock();
  GRAN_ASSERT_MSG(count_ >= n, "latch count_down below zero");
  count_ -= n;
  wait_queue to_wake;
  if (count_ == 0) to_wake = waiters_.detach_all();
  guard_.unlock();
  // Dispatch outside the spinlock: a released waiter may destroy the latch.
  to_wake.dispatch_all();
}

bool latch::try_wait() const {
  guard_.lock();
  const bool done = count_ == 0;
  guard_.unlock();
  return done;
}

void latch::wait() const {
  task* const t = thread_manager::current_task();
  if (t != nullptr) {
    this_task::prepare_suspend();
    guard_.lock();
    if (count_ == 0) {
      guard_.unlock();
      this_task::cancel_suspend();
      return;
    }
    wait_entry me(t);
    waiters_.push(me);
    guard_.unlock();
    // Only the count reaching zero wakes the entry (wakes of a task parked
    // in a primitive are reserved to the primitive), and that is final.
    this_task::commit_suspend();
  } else {
    external_waiter w;
    guard_.lock();
    if (count_ == 0) {
      guard_.unlock();
      return;
    }
    wait_entry me(&w);
    waiters_.push(me);
    guard_.unlock();
    w.wait();
  }
}

void latch::arrive_and_wait(std::int64_t n) {
  count_down(n);
  wait();
}

}  // namespace gran
