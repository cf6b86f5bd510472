// Exponential spin backoff for lock-free retry loops and idle worker waits.
#pragma once

#include <cstdint>
#include <thread>

#if defined(__x86_64__) || defined(__i386__)
#include <immintrin.h>
#endif

namespace gran {

// Single CPU pause/yield hint.
inline void cpu_relax() noexcept {
#if defined(__x86_64__) || defined(__i386__)
  _mm_pause();
#elif defined(__aarch64__)
  asm volatile("yield" ::: "memory");
#else
  std::this_thread::yield();
#endif
}

// Exponential backoff: spins with pause hints, escalating to OS yield once
// the spin budget is exhausted. Reset when progress is made.
class backoff {
 public:
  explicit backoff(std::uint32_t spin_limit = 1024) noexcept : spin_limit_(spin_limit) {}

  void pause() noexcept {
    if (count_ < spin_limit_) {
      for (std::uint32_t i = 0; i < count_ + 1; ++i) cpu_relax();
      count_ = count_ == 0 ? 1 : count_ * 2;
    } else {
      std::this_thread::yield();
    }
  }

  void reset() noexcept { count_ = 0; }

  // True once backoff has escalated past pure spinning.
  bool yielding() const noexcept { return count_ >= spin_limit_; }

 private:
  std::uint32_t count_ = 0;
  std::uint32_t spin_limit_;
};

// Idle-worker escalation: spin with pause hints, then OS-yield, then tell
// the caller to park (block on its wakeup primitive). Unlike `backoff`, the
// two thresholds are parameters: the scheduler passes its idle_spin_limit /
// idle_yield_limit constants (thread_manager.cpp).
class idle_backoff {
 public:
  idle_backoff(std::uint32_t spin_limit, std::uint32_t yield_limit) noexcept
      : spin_limit_(spin_limit), yield_limit_(yield_limit) {}

  // One escalation step. Returns true once the caller should park.
  bool pause() noexcept {
    ++streak_;
    if (streak_ <= spin_limit_) {
      cpu_relax();
      return false;
    }
    if (streak_ <= yield_limit_) {
      std::this_thread::yield();
      return false;
    }
    return true;
  }

  void reset() noexcept { streak_ = 0; }
  std::uint32_t streak() const noexcept { return streak_; }

 private:
  std::uint32_t streak_ = 0;
  std::uint32_t spin_limit_;
  std::uint32_t yield_limit_;
};

}  // namespace gran
