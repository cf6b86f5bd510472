// Allocation budget of the futures layer.
//
// This binary replaces the global operator new with a counting version so
// it can assert how many heap allocations a futurized graph node costs:
// one for the node (result state, body, inputs and bookkeeping in a single
// block) and one for the input vector the graph builder hands to
// dataflow_all. The task descriptor (fiber embedded) costs none: the graph
// is built on the pool, so every spawn is a worker's, and workers recycle
// descriptors with their stacks. The heat ring's payload adds its own two
// on top; the runtime's share is what is bounded here. The budget holds
// for both context-switch backends: the ucontext build keeps its
// ucontext_t shells inside the fiber too.
//
// It lives in its own executable because the replacement is process-wide.
#include <gtest/gtest.h>

#include <atomic>
#include <cstdint>
#include <cstdlib>
#include <new>
#include <vector>

#include "async/gran.hpp"
#include "graph/futurize.hpp"
#include "graph/spec.hpp"

namespace {
std::atomic<std::uint64_t> g_allocations{0};

void* counted_alloc(std::size_t n) {
  g_allocations.fetch_add(1, std::memory_order_relaxed);
  if (void* p = std::malloc(n == 0 ? 1 : n)) return p;
  throw std::bad_alloc();
}

void* counted_aligned_alloc(std::size_t n, std::align_val_t al) {
  g_allocations.fetch_add(1, std::memory_order_relaxed);
  const auto a = static_cast<std::size_t>(al);
  // aligned_alloc wants a size that is a multiple of the alignment.
  if (void* p = std::aligned_alloc(a, (n + a - 1) / a * a)) return p;
  throw std::bad_alloc();
}
}  // namespace

// The array and nothrow forms forward to these by default.
void* operator new(std::size_t n) { return counted_alloc(n); }
void* operator new[](std::size_t n) { return counted_alloc(n); }
void* operator new(std::size_t n, std::align_val_t al) { return counted_aligned_alloc(n, al); }
void* operator new[](std::size_t n, std::align_val_t al) {
  return counted_aligned_alloc(n, al);
}
void operator delete(void* p) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t) noexcept { std::free(p); }
void operator delete(void* p, std::align_val_t) noexcept { std::free(p); }
void operator delete[](void* p, std::align_val_t) noexcept { std::free(p); }
void operator delete(void* p, std::size_t, std::align_val_t) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t, std::align_val_t) noexcept { std::free(p); }

namespace gran {
namespace {

std::uint64_t allocations() { return g_allocations.load(std::memory_order_relaxed); }

scheduler_config budget_config() {
  scheduler_config cfg;
  cfg.num_workers = 2;
  cfg.pin_workers = false;
  return cfg;
}

constexpr std::uint32_t k_steps = 33;  // 32 computed rows over the seed row

// Allocations made while futurizing a seeded `nearest` (heat-ring) graph of
// `width` points with an int payload. The seed row is built before counting.
std::uint64_t count_graph(thread_manager& tm, std::uint32_t width) {
  graph::graph_spec g;
  g.kind = graph::pattern::nearest;
  g.width = width;
  g.steps = k_steps;
  g.radius = 1;
  std::vector<future<int>> seed;
  seed.reserve(width);
  for (std::uint32_t p = 0; p < width; ++p)
    seed.push_back(make_ready_future<int>(static_cast<int>(p)));

  const std::uint64_t before = allocations();
  auto dag = graph::futurize_dag_seeded<int>(
      tm, g,
      [](std::uint32_t, std::uint32_t, const std::vector<future<int>>& in) {
        int sum = 0;
        for (const auto& f : in) sum += f.get();
        return sum % 1000003;
      },
      std::move(seed));
  const std::uint64_t used = allocations() - before;
  EXPECT_EQ(dag.tasks, std::uint64_t{width} * (k_steps - 1));
  return used;
}

TEST(AllocBudget, PromiseAndFutureCostOneAllocation) {
  const std::uint64_t before = allocations();
  {
    promise<int> p;
    future<int> f = p.get_future();
    p.set_value(7);
    EXPECT_EQ(f.get(), 7);
  }
  EXPECT_EQ(allocations() - before, 1u);
}

TEST(AllocBudget, FuturizedNodeCostsAtMostTwoAllocations) {
  thread_manager tm(budget_config());
  constexpr std::uint32_t narrow = 64;
  constexpr std::uint32_t wide = 320;
  // Warm-up: fills the stack pool and grows the scheduler's queues, so the
  // measured runs see steady-state costs only.
  for (int i = 0; i < 2; ++i) {
    count_graph(tm, wide);
    count_graph(tm, narrow);
  }
  const std::uint64_t a_narrow = count_graph(tm, narrow);
  const std::uint64_t a_wide = count_graph(tm, wide);
  // The difference between two graphs of equal depth cancels the per-row
  // bookkeeping of the builder (the row vector, the retired-row list), so
  // what remains is the average cost of the extra nodes alone.
  const double extra_nodes = static_cast<double>(wide - narrow) * (k_steps - 1);
  const double per_node = (static_cast<double>(a_wide) - static_cast<double>(a_narrow)) /
                          extra_nodes;
  RecordProperty("allocations_per_node", std::to_string(per_node));
  std::printf("allocations per node: %.3f (narrow %llu, wide %llu)\n", per_node,
              static_cast<unsigned long long>(a_narrow),
              static_cast<unsigned long long>(a_wide));
  // The steady state is 2. The 0.25 margin (about 2000 allocations over
  // the 8192 extra nodes) absorbs descriptors a worker allocates when its
  // capped cache runs dry in a burst — a row whose inputs are all ready
  // fires at once — and a late growth of a scheduler queue; it stays well
  // below the 3 a heap-allocated descriptor per node would cost.
  EXPECT_LT(per_node, 2.25);
}

TEST(AllocBudget, WarmWorkerSpawnAllocatesNothing) {
  thread_manager tm(budget_config());
  constexpr int batches = 625;
  constexpr int batch = 16;  // 10k spawns per run, under the cache cap
  // A body of 48 B, the largest unique_function keeps inline.
  struct body {
    std::atomic<int>* ran;
    std::uint64_t pad[5];
    void operator()() const { ran->fetch_add(1, std::memory_order_relaxed); }
  };
  static_assert(sizeof(body) == 48);

  // One task spawns batch after batch and waits (yielding) for each batch
  // to finish, so descriptors retire, on either worker, and come back
  // before the next batch needs them.
  const auto run = [&] {
    std::atomic<std::uint64_t> used{0};
    tm.spawn([&] {
      std::atomic<int> ran{0};
      const std::uint64_t before = allocations();
      for (int b = 0; b < batches; ++b) {
        for (int i = 0; i < batch; ++i) tm.spawn(body{&ran, {}});
        while (ran.load(std::memory_order_relaxed) < (b + 1) * batch) this_task::yield();
      }
      used = allocations() - before;
    });
    tm.wait_idle();
    return used.load();
  };
  run();  // warm-up: fills the worker caches and grows the queues
  const std::uint64_t used = run();
  const double per_spawn = static_cast<double>(used) / (batches * batch);
  RecordProperty("allocations_per_spawn", std::to_string(per_spawn));
  std::printf("allocations per warm worker spawn: %.4f (%llu in %d)\n", per_spawn,
              static_cast<unsigned long long>(used), batches * batch);
  EXPECT_LT(per_spawn, 0.01);
}

}  // namespace
}  // namespace gran
