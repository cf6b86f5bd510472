#include "fiber/fiber.hpp"

#include <utility>

#include "util/assert.hpp"

// AddressSanitizer must be told about stack switches or it reports false
// stack-use-after-return/overflow on every fiber switch. The annotations
// follow the documented protocol: start_switch before leaving a context,
// finish_switch as the first action after arriving in the destination.
#if defined(__has_feature)
#if __has_feature(address_sanitizer)
#define GRAN_ASAN_FIBERS 1
#endif
#if __has_feature(thread_sanitizer)
#define GRAN_TSAN_FIBERS 1
#endif
#endif
#if !defined(GRAN_ASAN_FIBERS) && defined(__SANITIZE_ADDRESS__)
#define GRAN_ASAN_FIBERS 1
#endif
#if !defined(GRAN_TSAN_FIBERS) && defined(__SANITIZE_THREAD__)
#define GRAN_TSAN_FIBERS 1
#endif
#ifdef GRAN_ASAN_FIBERS
extern "C" {
void __sanitizer_start_switch_fiber(void** fake_stack_save, const void* bottom,
                                    __SIZE_TYPE__ size);
void __sanitizer_finish_switch_fiber(void* fake_stack_save, const void** bottom_old,
                                     __SIZE_TYPE__* size_old);
}
#endif
#ifdef GRAN_TSAN_FIBERS
// ThreadSanitizer models each stackful context as its own logical thread.
extern "C" {
void* __tsan_get_current_fiber();
void* __tsan_create_fiber(unsigned flags);
void __tsan_destroy_fiber(void* fiber);
void __tsan_switch_to_fiber(void* fiber, unsigned flags);
}
#endif

namespace gran {

namespace {
thread_local fiber* tl_current_fiber = nullptr;
}

fiber::fiber(fiber_stack stack, body_fn body)
    : stack_(std::move(stack)), body_(std::move(body)) {
  GRAN_ASSERT_MSG(stack_.valid(), "fiber requires a valid stack");
  GRAN_ASSERT_MSG(static_cast<bool>(body_), "fiber requires a body");
  ctx_make(self_ctx_, stack_.base(), stack_.size(), &fiber::entry);
#ifdef GRAN_TSAN_FIBERS
  tsan_fiber_ = __tsan_create_fiber(0);
#endif
}

fiber::~fiber() {
  GRAN_ASSERT_MSG(!running_, "destroying a running fiber");
  // Destroying a started-but-unfinished fiber abandons its stack frame; the
  // stack unmaps with the object. Destructors on that abandoned frame do not
  // run — the scheduler only destroys terminated tasks, enforced there.
#ifdef GRAN_TSAN_FIBERS
  if (tsan_fiber_ != nullptr) __tsan_destroy_fiber(tsan_fiber_);
#endif
}

void fiber::entry(void* self_ptr) {
  auto* self = static_cast<fiber*>(self_ptr);
  self->run_body();
  GRAN_ASSERT_MSG(false, "unreachable: run_body never returns");
}

void fiber::run_body() {
#ifdef GRAN_ASAN_FIBERS
  // First arrival on this fiber's stack: record where we came from.
  __sanitizer_finish_switch_fiber(nullptr, &asan_resumer_bottom_, &asan_resumer_size_);
#endif
  body_();
  finished_ = true;
  // Final suspension: hand control back to the resumer forever.
  fiber* self = this;  // `this` may dangle after the last switch; copy first
  void* ignored = nullptr;
  for (;;) {
#ifdef GRAN_ASAN_FIBERS
    // nullptr fake-stack save: this context is terminating.
    __sanitizer_start_switch_fiber(nullptr, self->asan_resumer_bottom_,
                                   self->asan_resumer_size_);
#endif
#ifdef GRAN_TSAN_FIBERS
    __tsan_switch_to_fiber(self->tsan_resumer_fiber_, 0);
#endif
    // A resume() of a finished fiber is a caller bug; the assert in resume()
    // catches it before we would ever get here twice.
    ignored = ctx_switch(self->self_ctx_, self->return_ctx_, nullptr);
    (void)ignored;
    GRAN_ASSERT_MSG(false, "resumed a finished fiber");
  }
}

void* fiber::resume(void* arg) {
  GRAN_ASSERT_MSG(!finished_, "resume of a finished fiber");
  GRAN_ASSERT_MSG(!running_, "fiber is already running");
  fiber* const prev = tl_current_fiber;
  tl_current_fiber = this;
  running_ = true;
  // The first resume passes `this` so the trampoline can reach entry();
  // later resumes pass the caller's argument through as suspend()'s return
  // value (the first resume's arg is therefore not observable by the body).
  void* const pass = started_ ? arg : static_cast<void*>(this);
  started_ = true;
#ifdef GRAN_ASAN_FIBERS
  __sanitizer_start_switch_fiber(&asan_resumer_fake_, stack_.base(), stack_.size());
#endif
#ifdef GRAN_TSAN_FIBERS
  tsan_resumer_fiber_ = __tsan_get_current_fiber();
  __tsan_switch_to_fiber(tsan_fiber_, 0);
#endif
  void* const result = ctx_switch(return_ctx_, self_ctx_, pass);
#ifdef GRAN_ASAN_FIBERS
  __sanitizer_finish_switch_fiber(asan_resumer_fake_, nullptr, nullptr);
#endif
  running_ = false;
  tl_current_fiber = prev;
  return finished_ ? nullptr : result;
}

void* fiber::suspend(void* arg) {
  GRAN_ASSERT_MSG(tl_current_fiber == this, "suspend outside the fiber");
#ifdef GRAN_ASAN_FIBERS
  __sanitizer_start_switch_fiber(&asan_self_fake_, asan_resumer_bottom_,
                                 asan_resumer_size_);
#endif
#ifdef GRAN_TSAN_FIBERS
  __tsan_switch_to_fiber(tsan_resumer_fiber_, 0);
#endif
  void* const result = ctx_switch(self_ctx_, return_ctx_, arg);
#ifdef GRAN_ASAN_FIBERS
  // Re-arrived on this fiber (possibly resumed from a different OS thread):
  // refresh the resumer's stack bounds.
  __sanitizer_finish_switch_fiber(asan_self_fake_, &asan_resumer_bottom_,
                                  &asan_resumer_size_);
#endif
  return result;
}

fiber_stack fiber::take_stack() {
  GRAN_ASSERT_MSG(finished_, "stack can only be taken from a finished fiber");
  return std::move(stack_);
}

fiber* fiber::current() noexcept { return tl_current_fiber; }

}  // namespace gran
