#include "sync/barrier.hpp"

#include "util/assert.hpp"

namespace gran {

barrier::barrier(std::int64_t expected, std::function<void()> on_completion)
    : on_completion_(std::move(on_completion)), expected_(expected) {
  GRAN_ASSERT(expected >= 1);
}

void barrier::arrive_and_wait() {
  task* const t = thread_manager::current_task();
  if (t != nullptr) this_task::prepare_suspend();

  guard_.lock();
  ++arrived_;
  if (arrived_ == expected_) {
    // Phase complete: run the completion, start the next phase, release
    // everyone (dispatch outside the spinlock — see wait_queue docs).
    if (on_completion_) on_completion_();
    arrived_ = 0;
    wait_queue to_wake = waiters_.detach_all();
    guard_.unlock();
    if (t != nullptr) this_task::cancel_suspend();
    to_wake.dispatch_all();
    return;
  }

  if (t != nullptr) {
    wait_entry me(t);
    waiters_.push(me);
    guard_.unlock();
    // Only this phase's completion wakes the entry (wakes of a task parked
    // in a primitive are reserved to the primitive).
    this_task::commit_suspend();
  } else {
    external_waiter w;
    wait_entry me(&w);
    waiters_.push(me);
    guard_.unlock();
    w.wait();
    // External waiters are only notified on phase completion.
  }
}

void barrier::arrive_and_drop() {
  guard_.lock();
  GRAN_ASSERT(expected_ >= 1);
  --expected_;
  // Dropping may satisfy the current phase for the remaining participants.
  wait_queue to_wake;
  if (expected_ > 0 && arrived_ == expected_) {
    if (on_completion_) on_completion_();
    arrived_ = 0;
    to_wake = waiters_.detach_all();
  }
  guard_.unlock();
  to_wake.dispatch_all();
}

}  // namespace gran
