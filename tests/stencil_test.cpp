// Tests for the heat-diffusion workload: serial reference, futurized
// runtime version, and their exact agreement across granularities —
// parameterized the way the paper sweeps partition sizes.
#include <gtest/gtest.h>

#include <numeric>

#include "stencil/futurized.hpp"
#include "stencil/serial.hpp"

namespace gran::stencil {
namespace {

scheduler_config test_config(int workers) {
  scheduler_config cfg;
  cfg.num_workers = workers;
  cfg.pin_workers = false;
  return cfg;
}

// --- params -----------------------------------------------------------------

TEST(StencilParams, NumPartitions) {
  params p;
  p.total_points = 1000;
  p.partition_size = 100;
  EXPECT_EQ(p.num_partitions(), 10u);
  EXPECT_EQ(p.num_tasks(), 10u * p.time_steps);
}

TEST(StencilParams, NormalizeFindsDivisor) {
  params p;
  p.total_points = 1000;
  p.partition_size = 300;  // does not divide
  p.normalize();
  EXPECT_EQ(p.total_points % p.partition_size, 0u);
  EXPECT_LE(p.partition_size, 300u);
  EXPECT_GE(p.partition_size, 1u);
}

TEST(StencilParams, NormalizeClamps) {
  params p;
  p.total_points = 100;
  p.partition_size = 5000;
  p.normalize();
  EXPECT_EQ(p.partition_size, 100u);
  p.partition_size = 0;
  p.normalize();
  EXPECT_EQ(p.partition_size, 1u);
}

TEST(StencilParams, HeatFormula) {
  params p;  // k=0.5, dt=1, dx=1  ->  u' = u + 0.5(l - 2u + r)
  EXPECT_DOUBLE_EQ(p.heat(1.0, 2.0, 3.0), 2.0);
  EXPECT_DOUBLE_EQ(p.heat(0.0, 0.0, 0.0), 0.0);
  EXPECT_DOUBLE_EQ(p.heat(4.0, 2.0, 0.0), 2.0);
  EXPECT_DOUBLE_EQ(p.heat(0.0, 2.0, 0.0), 0.0);  // cooling peak
}

// --- serial reference ----------------------------------------------------------

TEST(SerialStencil, InitialState) {
  params p;
  p.total_points = 5;
  const auto u = initial_state(p);
  ASSERT_EQ(u.size(), 5u);
  for (std::size_t i = 0; i < u.size(); ++i) EXPECT_DOUBLE_EQ(u[i], i);
}

TEST(SerialStencil, OneStepRingWrap) {
  params p;
  p.total_points = 4;
  const std::vector<double> u{0, 1, 2, 3};
  std::vector<double> next(4);
  step_serial(p, u, next);
  // Interior points of a linear profile stay; boundary points feel the wrap.
  EXPECT_DOUBLE_EQ(next[1], 1.0);
  EXPECT_DOUBLE_EQ(next[2], 2.0);
  EXPECT_DOUBLE_EQ(next[0], p.heat(3.0, 0.0, 1.0));  // left wraps to u[3]
  EXPECT_DOUBLE_EQ(next[3], p.heat(2.0, 3.0, 0.0));  // right wraps to u[0]
}

TEST(SerialStencil, HeatIsConserved) {
  // The symmetric 3-point kernel conserves the total on a ring.
  params p;
  p.total_points = 128;
  p.time_steps = 50;
  const auto u0 = initial_state(p);
  const auto uN = run_serial(p);
  const double sum0 = std::accumulate(u0.begin(), u0.end(), 0.0);
  const double sumN = std::accumulate(uN.begin(), uN.end(), 0.0);
  EXPECT_NEAR(sumN, sum0, 1e-6 * sum0);
}

TEST(SerialStencil, DiffusionSmoothes) {
  // Variance must not increase under diffusion.
  params p;
  p.total_points = 64;
  p.time_steps = 20;
  const auto u0 = initial_state(p);
  const auto uN = run_serial(p);
  const auto variance = [](const std::vector<double>& v) {
    const double mean = std::accumulate(v.begin(), v.end(), 0.0) / v.size();
    double s = 0;
    for (double x : v) s += (x - mean) * (x - mean);
    return s / v.size();
  };
  EXPECT_LE(variance(uN), variance(u0) + 1e-9);
}

// --- partition_step --------------------------------------------------------------

TEST(PartitionStep, MatchesPointwiseKernel) {
  params p;
  const std::vector<double> left{1, 2}, mid{3, 4, 5}, right{6, 7};
  const auto next = partition_step(p, left, mid, right);
  ASSERT_EQ(next.size(), 3u);
  EXPECT_DOUBLE_EQ(next[0], p.heat(2, 3, 4));  // left.back()
  EXPECT_DOUBLE_EQ(next[1], p.heat(3, 4, 5));
  EXPECT_DOUBLE_EQ(next[2], p.heat(4, 5, 6));  // right.front()
}

TEST(PartitionStep, SinglePointPartition) {
  params p;
  const std::vector<double> left{1}, mid{2}, right{3};
  const auto next = partition_step(p, left, mid, right);
  ASSERT_EQ(next.size(), 1u);
  EXPECT_DOUBLE_EQ(next[0], p.heat(1, 2, 3));
}

TEST(PartitionStep, TwoPointPartition) {
  params p;
  const std::vector<double> left{9}, mid{1, 2}, right{7};
  const auto next = partition_step(p, left, mid, right);
  ASSERT_EQ(next.size(), 2u);
  EXPECT_DOUBLE_EQ(next[0], p.heat(9, 1, 2));
  EXPECT_DOUBLE_EQ(next[1], p.heat(1, 2, 7));
}

// --- futurized == serial, across granularity and workers -----------------------

struct grid_case {
  std::size_t points;
  std::size_t partition;
  std::size_t steps;
  int workers;
};

class FuturizedMatchesSerial : public ::testing::TestWithParam<grid_case> {};

TEST_P(FuturizedMatchesSerial, BitIdentical) {
  const auto [points, partition, steps, workers] = GetParam();
  params p;
  p.total_points = points;
  p.partition_size = partition;
  p.time_steps = steps;
  p.normalize();

  thread_manager tm(test_config(workers));
  const auto parallel = run_futurized(tm, p);
  const auto serial = run_serial(p);

  ASSERT_EQ(parallel.state.size(), serial.size());
  for (std::size_t i = 0; i < serial.size(); ++i)
    ASSERT_EQ(parallel.state[i], serial[i]) << "point " << i;
  EXPECT_GT(parallel.elapsed_s, 0.0);
}

INSTANTIATE_TEST_SUITE_P(
    GranularitySweep, FuturizedMatchesSerial,
    ::testing::Values(grid_case{1'000, 1, 3, 2},        // 1-point partitions
                      grid_case{1'000, 2, 5, 2},        // 2-point partitions
                      grid_case{10'000, 100, 10, 2},    // fine
                      grid_case{10'000, 1'000, 10, 3},  // medium
                      grid_case{10'000, 5'000, 10, 2},  // two partitions
                      grid_case{10'000, 10'000, 10, 2}, // single partition
                      grid_case{30'000, 300, 20, 4},    // more steps, 4 workers
                      grid_case{8'192, 256, 7, 1}));    // single worker

TEST(Futurized, TaskCountMatchesFormula) {
  params p;
  p.total_points = 5'000;
  p.partition_size = 250;
  p.time_steps = 8;
  thread_manager tm(test_config(2));
  tm.reset_counters();
  run_futurized(tm, p);
  tm.wait_idle();  // drain the final tasks' accounting
  const auto totals = tm.counter_totals();
  // + 1: called from outside the pool, the graph is built by one
  // construction task on it (graph::futurize_dag_seeded).
  EXPECT_EQ(totals.tasks_executed, p.num_tasks() + 1);
}


TEST(Futurized, ConstructionRunsAsOneTaskOnThePool) {
  // From outside the pool, each solve's graph is built by one construction
  // task on it; from inside a task, the calling task builds it inline.
  // Two solves tell the cases apart: 2 construction tasks outside, none
  // inside (the one extra task there is the caller itself).
  params p;
  p.total_points = 5'000;
  p.partition_size = 250;
  p.time_steps = 8;
  const auto serial = run_serial(p);
  thread_manager tm(test_config(2));

  tm.reset_counters();
  EXPECT_EQ(run_futurized(tm, p).state, serial);
  EXPECT_EQ(run_futurized(tm, p).state, serial);
  tm.wait_idle();
  EXPECT_EQ(tm.counter_totals().tasks_executed, 2 * p.num_tasks() + 2);

  tm.reset_counters();
  std::vector<double> first, second;
  tm.spawn([&] {
    first = run_futurized(tm, p).state;
    second = run_futurized(tm, p).state;
  });
  tm.wait_idle();
  EXPECT_EQ(tm.counter_totals().tasks_executed, 2 * p.num_tasks() + 1);
  EXPECT_EQ(first, serial);
  EXPECT_EQ(second, serial);
}

// --- wide rows: built in parallel slices ------------------------------------

struct wide_case {
  std::size_t partitions;
  int workers;
  std::size_t slices;  // min(workers, partitions / 256) for rows >= 512 wide
};

class WideRowsMatchSerial : public ::testing::TestWithParam<wide_case> {};

TEST_P(WideRowsMatchSerial, BitIdenticalWithOneHelperPerExtraSlice) {
  const auto [partitions, workers, slices] = GetParam();
  params p;
  p.partition_size = 3;
  p.total_points = 3 * partitions;
  p.time_steps = 10;
  p.normalize();
  ASSERT_EQ(p.num_partitions(), partitions);

  thread_manager tm(test_config(workers));
  tm.reset_counters();
  const auto parallel = run_futurized(tm, p);
  tm.wait_idle();
  const auto serial = run_serial(p);
  ASSERT_EQ(parallel.state.size(), serial.size());
  for (std::size_t i = 0; i < serial.size(); ++i)
    ASSERT_EQ(parallel.state[i], serial[i]) << "point " << i;
  // + 1 for the construction task, + (slices - 1) helper tasks per row.
  EXPECT_EQ(tm.counter_totals().tasks_executed,
            p.num_tasks() + 1 + (slices - 1) * p.time_steps);
}

INSTANTIATE_TEST_SUITE_P(
    SliceCounts, WideRowsMatchSerial,
    ::testing::Values(wide_case{1'030, 1, 1},   // one worker: serial rows
                      wide_case{1'030, 2, 2},   // uneven slices of 515
                      wide_case{1'030, 4, 4},   // 257/258-wide slices
                      wide_case{640, 4, 2},     // width caps the split
                      wide_case{511, 4, 1}));   // below 2 x 256: serial

TEST(Futurized, BuilderSuspendsAboutOncePerRow) {
  // The builder suspends at most once per row joining its slice helpers,
  // and its final wait takes the newest row first, so it is not resumed
  // once per future it reaches ahead of the wavefront.
  params p;
  p.partition_size = 16;
  p.total_points = 16 * 1'024;
  p.time_steps = 30;
  thread_manager tm(test_config(4));
  const auto serial = run_serial(p);
  tm.reset_counters();
  EXPECT_EQ(run_futurized(tm, p).state, serial);
  tm.wait_idle();
  const auto totals = tm.counter_totals();
  const std::uint64_t extra_phases = totals.phases_executed - totals.tasks_executed;
  RecordProperty("builder_extra_phases", std::to_string(extra_phases));
  // One join per row, plus a few resumptions in the final wait (1-9 in
  // repeated runs on a 4-CPU host, loaded or not). Waiting oldest row first,
  // the builder resumed once per future it reached ahead of the wavefront:
  // hundreds to thousands of extra phases on this ring.
  EXPECT_LE(extra_phases, p.time_steps + 16);
}

TEST(Futurized, WindowedConstructionMatchesUnbounded) {
  // max_steps_in_flight bounds memory but must not change results.
  params p;
  p.total_points = 10'000;
  p.partition_size = 500;
  p.time_steps = 25;
  thread_manager tm(test_config(3));

  const auto serial = run_serial(p);
  for (const std::size_t window : {1u, 2u, 5u}) {
    params wp = p;
    wp.max_steps_in_flight = window;
    const auto r = run_futurized(tm, wp);
    ASSERT_EQ(r.state.size(), serial.size());
    for (std::size_t i = 0; i < serial.size(); ++i)
      ASSERT_EQ(r.state[i], serial[i]) << "window " << window << " point " << i;
  }
}

TEST(Futurized, WindowedConstructionRunsAllTasks) {
  params p;
  p.total_points = 5'000;
  p.partition_size = 250;
  p.time_steps = 12;
  p.max_steps_in_flight = 2;
  thread_manager tm(test_config(2));
  tm.reset_counters();
  run_futurized(tm, p);
  tm.wait_idle();
  // + 1: the construction task, which also waits out the window.
  EXPECT_EQ(tm.counter_totals().tasks_executed, p.num_tasks() + 1);
}

TEST(Futurized, LinearProfileFixedInterior) {
  // u_i = i is harmonic away from the ring seam, so interior points far
  // from the wrap stay exactly fixed for a few steps.
  params p;
  p.total_points = 1'000;
  p.partition_size = 100;
  p.time_steps = 3;
  thread_manager tm(test_config(2));
  const auto r = run_futurized(tm, p);
  EXPECT_DOUBLE_EQ(r.state[500], 500.0);
  EXPECT_NE(r.state[0], 0.0);  // the seam diffuses immediately
}

}  // namespace
}  // namespace gran::stencil
