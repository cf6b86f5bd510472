#include "sync/event.hpp"

namespace gran {

void event::set() {
  guard_.lock();
  set_ = true;
  wait_queue to_wake = waiters_.detach_all();
  guard_.unlock();
  to_wake.dispatch_all();
}

void event::reset() {
  guard_.lock();
  set_ = false;
  guard_.unlock();
}

bool event::is_set() const {
  guard_.lock();
  const bool s = set_;
  guard_.unlock();
  return s;
}

void event::wait() const {
  for (;;) {
    task* const t = thread_manager::current_task();
    if (t != nullptr) this_task::prepare_suspend();

    guard_.lock();
    if (set_) {
      guard_.unlock();
      if (t != nullptr) this_task::cancel_suspend();
      return;
    }
    if (t != nullptr) {
      wait_entry me(t);
      waiters_.push(me);
      guard_.unlock();
      this_task::commit_suspend();
      // Re-check: reset() may have raced with the wake.
    } else {
      external_waiter w;
      wait_entry me(&w);
      waiters_.push(me);
      guard_.unlock();
      w.wait();
      return;  // external waiters are only notified by set()
    }
  }
}

}  // namespace gran
