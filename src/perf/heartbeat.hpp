// Worker heartbeat board: one cache-line-padded slot per worker, stamped
// from the thread manager's scheduler loop with relaxed stores and read by
// the stall watchdog (perf/watchdog.hpp) from its own thread.
//
// The board is process-global (like the tracer and the counter registry) so
// the watchdog — which lives in the perf layer and must not depend on the
// scheduler libraries — can observe worker liveness without touching a
// thread_manager:
//   * beat_ticks        last scheduler-round timestamp (tsc). A worker that
//                       stops beating is wedged or parked; parking alone is
//                       NOT an incident (parked workers beat at least
//                       every 2 ms, the scheduler's park timeout).
//   * phase_start_ticks tsc at the start of the phase currently executing on
//                       this worker, 0 when no task is running. A non-zero
//                       value older than the stuck threshold is the
//                       watchdog's "stuck task" signal.
//   * task_id           id of the running task (valid while
//                       phase_start_ticks != 0).
//
// Writers are the worker OS threads (one per slot); stamping is one or two
// relaxed stores per scheduler round — cheap enough to stay always-on
// (bench/micro_plane_overhead --plane=telemetry gates the total at 2%).
#pragma once

#include <algorithm>
#include <atomic>
#include <cstdint>

#include "util/cacheline.hpp"

namespace gran::perf {

struct heartbeat_slot {
  std::atomic<std::uint64_t> beat_ticks{0};
  std::atomic<std::uint64_t> phase_start_ticks{0};
  std::atomic<std::uint64_t> task_id{0};

  void reset() noexcept {
    beat_ticks.store(0, std::memory_order_relaxed);
    phase_start_ticks.store(0, std::memory_order_relaxed);
    task_id.store(0, std::memory_order_relaxed);
  }
};

class heartbeat_board {
 public:
  // Fixed capacity avoids any allocation or locking on the stamping path;
  // workers beyond it simply go unmonitored (far above real pools).
  static constexpr int capacity = 256;

  static heartbeat_board& instance() {
    static heartbeat_board b;
    return b;
  }

  // Called by thread_manager at construction: publishes the monitored
  // worker count and clears stale stamps from a previous manager. Like the
  // counter registry, concurrent managers overwrite each other — run one
  // instrumented manager at a time.
  void attach(int workers) noexcept {
    const int n = std::min(workers, capacity);
    for (int w = 0; w < n; ++w) slots_[static_cast<std::size_t>(w)].slot.reset();
    active_.store(n, std::memory_order_release);
  }

  // Called at thread_manager::stop() after the workers have been joined;
  // the watchdog stops evaluating the (now frozen) slots.
  void detach() noexcept { active_.store(0, std::memory_order_release); }

  int active_workers() const noexcept {
    return active_.load(std::memory_order_acquire);
  }

  heartbeat_slot* slot(int worker) noexcept {
    return worker >= 0 && worker < capacity
               ? &slots_[static_cast<std::size_t>(worker)].slot
               : nullptr;
  }
  const heartbeat_slot* slot(int worker) const noexcept {
    return worker >= 0 && worker < capacity
               ? &slots_[static_cast<std::size_t>(worker)].slot
               : nullptr;
  }

 private:
  heartbeat_board() = default;

  struct padded {
    alignas(cache_line_size) heartbeat_slot slot;
  };
  std::atomic<int> active_{0};
  padded slots_[capacity];
};

}  // namespace gran::perf
