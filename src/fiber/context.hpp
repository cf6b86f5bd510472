// Raw execution-context primitives underneath gran::fiber.
//
// Two implementations share this interface:
//  * an x86-64 SysV assembly switch (context_x86_64.S) costing a few tens of
//    nanoseconds — the default, so task-management overheads measured by the
//    perf counters are the same order of magnitude as HPX's;
//  * a portable ucontext fallback (GRAN_FIBER_UCONTEXT), ~1 µs per switch
//    because swapcontext performs a sigprocmask syscall.
#pragma once

#include <cstddef>

#if defined(GRAN_FIBER_UCONTEXT)
#include <ucontext.h>
#endif

namespace gran {

// Entry signature for a fresh context. `param` is the pointer passed to the
// first ctx_switch into the context. Must never return.
using context_entry_fn = void (*)(void* param);

// Saved context of a suspended frame. The assembly build keeps just its
// stack pointer; the ucontext build holds the whole ucontext_t inline, so
// neither allocates. A context must not move once ctx_make or ctx_switch
// has written it (the ucontext_t points into itself).
struct execution_context {
#if defined(GRAN_FIBER_UCONTEXT)
  ucontext_t uc;
  context_entry_fn entry = nullptr;
#else
  void* sp = nullptr;
#endif
};

// Prepares `stack_base .. stack_base+size` (grows downward from the top) so
// that the first ctx_switch into `ctx` invokes `entry` with the switch
// argument as `param`. The stack memory must stay alive for the context's
// lifetime.
void ctx_make(execution_context& ctx, void* stack_base, std::size_t size,
              context_entry_fn entry);

// Suspends the current context into `from`, resumes `to`, passing `arg`.
// Returns the argument of the switch that later resumes `from`.
void* ctx_switch(execution_context& from, execution_context& to, void* arg);

}  // namespace gran
