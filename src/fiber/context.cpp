#include "fiber/context.hpp"

#include <cstdint>
#include <cstring>

#include "util/assert.hpp"

#if defined(GRAN_FIBER_UCONTEXT)
namespace gran {

// ucontext build: the ucontext_t lives inside the execution_context. A
// static entry shim dispatches to the requested entry function; the switch
// argument is carried in a thread-local because makecontext only forwards
// ints portably.

namespace {

thread_local void* tl_switch_arg = nullptr;

void uctx_entry_shim(unsigned hi, unsigned lo) {
  auto* self = reinterpret_cast<execution_context*>(
      (static_cast<std::uintptr_t>(hi) << 32) | static_cast<std::uintptr_t>(lo));
  self->entry(tl_switch_arg);
  GRAN_ASSERT_MSG(false, "fiber entry returned");
}

}  // namespace

void ctx_make(execution_context& ctx, void* stack_base, std::size_t size,
              context_entry_fn entry) {
  GRAN_ASSERT(getcontext(&ctx.uc) == 0);
  ctx.uc.uc_stack.ss_sp = stack_base;
  ctx.uc.uc_stack.ss_size = size;
  ctx.uc.uc_link = nullptr;
  ctx.entry = entry;
  const auto addr = reinterpret_cast<std::uintptr_t>(&ctx);
  makecontext(&ctx.uc, reinterpret_cast<void (*)()>(uctx_entry_shim), 2,
              static_cast<unsigned>(addr >> 32), static_cast<unsigned>(addr));
}

void* ctx_switch(execution_context& from, execution_context& to, void* arg) {
  tl_switch_arg = arg;
  GRAN_ASSERT(swapcontext(&from.uc, &to.uc) == 0);
  return tl_switch_arg;
}

}  // namespace gran

#else  // assembly build

extern "C" {
// Defined in context_x86_64.S.
void* gran_ctx_switch(void** save_sp, void* restore_sp, void* arg);
void gran_ctx_trampoline();
}

namespace gran {

void ctx_make(execution_context& ctx, void* stack_base, std::size_t size,
              context_entry_fn entry) {
  GRAN_ASSERT(stack_base != nullptr && size >= 256);

  // 16-byte-aligned top of stack.
  auto top = (reinterpret_cast<std::uintptr_t>(stack_base) + size) & ~std::uintptr_t{15};

  // Frame consumed by the restore half of gran_ctx_switch, top-down:
  //   [top-8]   return address  -> gran_ctx_trampoline
  //   [top-16]  rbp
  //   [top-24]  rbx  -> entry function (read by the trampoline)
  //   [top-32]  r12
  //   [top-40]  r13
  //   [top-48]  r14
  //   [top-56]  r15
  //   [top-64]  mxcsr (4B) | x87 cw (2B) | pad
  auto* frame = reinterpret_cast<std::uint64_t*>(top - 64);
  std::memset(frame, 0, 64);
  frame[7] = reinterpret_cast<std::uint64_t>(&gran_ctx_trampoline);
  frame[5] = reinterpret_cast<std::uint64_t>(entry);
  // Sane default FP environment: round-to-nearest, all exceptions masked.
  auto* fpu = reinterpret_cast<std::uint32_t*>(frame);
  fpu[0] = 0x1F80;                                       // MXCSR
  *reinterpret_cast<std::uint16_t*>(fpu + 1) = 0x037F;   // x87 control word

  ctx.sp = frame;
}

void* ctx_switch(execution_context& from, execution_context& to, void* arg) {
  GRAN_DEBUG_ASSERT(to.sp != nullptr);
  return gran_ctx_switch(&from.sp, to.sp, arg);
}

}  // namespace gran

#endif
