// Tests for the experiment driver (core/experiment.hpp) over both backends.
#include <gtest/gtest.h>

#include "core/experiment.hpp"
#include "core/selectors.hpp"
#include "sim/sim_backend.hpp"

namespace gran::core {
namespace {

TEST(ExperimentDriver, SimSweepProducesConsistentPoints) {
  sim::sim_backend backend("haswell");
  sweep_config cfg;
  cfg.base.total_points = 500'000;
  cfg.base.time_steps = 10;
  cfg.partition_sizes = {1'000, 10'000, 100'000};
  cfg.cores = 8;
  cfg.samples = 2;

  granularity_experiment exp(backend, cfg);
  int progress_calls = 0;
  const auto points = exp.run([&](const sweep_point&) { ++progress_calls; });

  ASSERT_EQ(points.size(), 3u);
  EXPECT_EQ(progress_calls, 3);
  for (const auto& p : points) {
    EXPECT_EQ(p.cores, 8);
    EXPECT_EQ(p.exec_time_s.count(), 2u);
    EXPECT_GT(p.exec_time_s.mean(), 0.0);
    EXPECT_GE(p.cov, 0.0);
    EXPECT_EQ(p.mean.tasks, p.num_tasks);
    EXPECT_GE(p.m.idle_rate, 0.0);
    EXPECT_LE(p.m.idle_rate, 1.0);
    EXPECT_GT(p.td1_ns, 0.0) << "baseline pass must fill td1";
  }
  // td1 grows with partition size (more points per task).
  EXPECT_LT(points[0].td1_ns, points[2].td1_ns);
}

TEST(ExperimentDriver, BaselinesReusedAcrossRuns) {
  sim::sim_backend backend("haswell");
  sweep_config cfg;
  cfg.base.total_points = 200'000;
  cfg.base.time_steps = 5;
  cfg.partition_sizes = {5'000, 50'000};
  cfg.cores = 4;
  cfg.samples = 1;

  granularity_experiment exp(backend, cfg);
  exp.run();
  const auto baselines = exp.baselines();
  ASSERT_EQ(baselines.size(), 2u);

  granularity_experiment exp2(backend, cfg);
  exp2.set_baselines(baselines);
  const auto points = exp2.run();
  EXPECT_DOUBLE_EQ(points[0].td1_ns, baselines[0]);
  EXPECT_DOUBLE_EQ(points[1].td1_ns, baselines[1]);
}

TEST(ExperimentDriver, BaselineSkippedWhenDisabled) {
  sim::sim_backend backend("haswell");
  sweep_config cfg;
  cfg.base.total_points = 200'000;
  cfg.base.time_steps = 5;
  cfg.partition_sizes = {5'000};
  cfg.cores = 4;
  cfg.samples = 1;
  cfg.measure_baseline = false;

  granularity_experiment exp(backend, cfg);
  const auto points = exp.run();
  EXPECT_EQ(points[0].td1_ns, 0.0);
  EXPECT_EQ(points[0].m.wait_time_s, 0.0);
}

TEST(ExperimentDriver, PartitionSizesNormalized) {
  sim::sim_backend backend("haswell");
  sweep_config cfg;
  cfg.base.total_points = 100'000;
  cfg.base.time_steps = 5;
  cfg.partition_sizes = {3'000};  // does not divide 100,000
  cfg.cores = 2;
  cfg.samples = 1;
  granularity_experiment exp(backend, cfg);
  const auto points = exp.run();
  EXPECT_EQ(100'000u % points[0].partition_size, 0u);
}

TEST(ExperimentDriver, NativeBackendSmallSweep) {
  native_backend backend;
  EXPECT_EQ(backend.name(), "native(priority-local-fifo)");
  sweep_config cfg;
  cfg.base.total_points = 50'000;
  cfg.base.time_steps = 5;
  cfg.partition_sizes = {1'000, 10'000};
  cfg.cores = 2;
  cfg.samples = 1;
  granularity_experiment exp(backend, cfg);
  const auto points = exp.run();
  ASSERT_EQ(points.size(), 2u);
  for (const auto& p : points) {
    // + 1: the graph is built by one construction task on the pool.
    EXPECT_EQ(p.mean.tasks, p.num_tasks + 1);
    EXPECT_GT(p.exec_time_s.mean(), 0.0);
    EXPECT_GT(p.mean.exec_ns, 0.0);
    EXPECT_GE(p.mean.func_ns, p.mean.exec_ns);
    EXPECT_GE(p.mean.pending_accesses, p.mean.tasks);
  }
}

TEST(ExperimentDriver, SelectorsComposeWithSimSweep) {
  sim::sim_backend backend("haswell");
  sweep_config cfg;
  cfg.base.total_points = 2'000'000;
  cfg.base.time_steps = 10;
  cfg.partition_sizes = {500, 5'000, 50'000, 500'000, 2'000'000};
  cfg.cores = 16;
  cfg.samples = 1;
  granularity_experiment exp(backend, cfg);
  const auto points = exp.run();

  const auto best = best_exec_time(points);
  EXPECT_GT(best.partition_size, 500u);
  EXPECT_LT(best.partition_size, 2'000'000u);

  const auto sel = idle_rate_threshold(points, 0.5);
  ASSERT_TRUE(sel.has_value());
  EXPECT_LT(sel->regret, 1.0);  // within 2x of optimum at a loose threshold

  const auto pq = pending_queue_minimum(points);
  EXPECT_LT(pq.regret, 1.0);
}

}  // namespace
}  // namespace gran::core
