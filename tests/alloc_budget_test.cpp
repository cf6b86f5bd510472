// Allocation budget of the futures layer.
//
// This binary replaces the global operator new with a counting version so
// it can assert how many heap allocations a futurized graph node costs:
// one for the node (result state, body, inputs and bookkeeping in a single
// block), one for its task descriptor (fiber embedded), and one for the
// input vector the graph builder hands to dataflow_all. The heat ring's
// payload adds its own two on top; the runtime's share is what is bounded
// here. The budget holds for both context-switch backends: the ucontext
// build keeps its ucontext_t shells inside the fiber too.
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

TEST(AllocBudget, FuturizedNodeCostsAtMostThreeAllocations) {
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
  // The steady state is exactly 3; the 0.05 margin (about 400 allocations
  // over the 8192 extra nodes) absorbs a late growth of a scheduler queue
  // or the stack pool that the warm-up did not reach.
  EXPECT_LT(per_node, 3.05);
}

}  // namespace
}  // namespace gran
