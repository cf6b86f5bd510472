#include "sync/semaphore.hpp"

#include "util/assert.hpp"

namespace gran {

counting_semaphore::counting_semaphore(std::int64_t initial) : count_(initial) {
  GRAN_ASSERT(initial >= 0);
}

void counting_semaphore::release(std::int64_t n) {
  GRAN_ASSERT(n >= 0);
  guard_.lock();
  count_ += n;
  wait_queue to_wake = waiters_.detach(static_cast<std::size_t>(n));
  guard_.unlock();
  to_wake.dispatch_all();
}

void counting_semaphore::acquire() {
  for (;;) {
    task* const t = thread_manager::current_task();
    if (t != nullptr) this_task::prepare_suspend();

    guard_.lock();
    if (count_ > 0) {
      --count_;
      guard_.unlock();
      if (t != nullptr) this_task::cancel_suspend();
      return;
    }
    if (t != nullptr) {
      wait_entry me(t);
      waiters_.push(me);
      guard_.unlock();
      this_task::commit_suspend();
      // Loop: competes again (another acquirer may have barged in).
    } else {
      external_waiter w;
      wait_entry me(&w);
      waiters_.push(me);
      guard_.unlock();
      w.wait();
    }
  }
}

bool counting_semaphore::try_acquire() {
  guard_.lock();
  const bool ok = count_ > 0;
  if (ok) --count_;
  guard_.unlock();
  return ok;
}

std::int64_t counting_semaphore::value() const {
  guard_.lock();
  const std::int64_t v = count_;
  guard_.unlock();
  return v;
}

}  // namespace gran
