#include "sync/mutex.hpp"

namespace gran {

void mutex::lock() {
  for (;;) {
    task* const t = thread_manager::current_task();
    if (t != nullptr) this_task::prepare_suspend();

    guard_.lock();
    if (!locked_) {
      locked_ = true;
      guard_.unlock();
      if (t != nullptr) this_task::cancel_suspend();
      return;
    }
    if (t != nullptr) {
      wait_entry me(t);
      waiters_.push(me);
      guard_.unlock();
      this_task::commit_suspend();
      // Woken by unlock(); loop to compete for the lock again (barging
      // keeps the fast path cheap; starvation is bounded by FIFO wakes).
    } else {
      external_waiter w;
      wait_entry me(&w);
      waiters_.push(me);
      guard_.unlock();
      w.wait();
    }
  }
}

bool mutex::try_lock() {
  guard_.lock();
  const bool acquired = !locked_;
  locked_ = true;
  guard_.unlock();
  return acquired;
}

void mutex::unlock() {
  guard_.lock();
  locked_ = false;
  wait_queue to_wake = waiters_.detach(1);
  guard_.unlock();
  // Dispatch outside the spinlock: the woken party may destroy this mutex.
  to_wake.dispatch_all();
}

}  // namespace gran
