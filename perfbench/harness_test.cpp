#include "harness.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <numeric>
#include <vector>

using namespace perfbench;

namespace {

std::vector<double> one_to(std::size_t n) {
  std::vector<double> v(n);
  std::iota(v.begin(), v.end(), 1.0);
  return v;
}

// 1..n, added in descending order.
gran::sample_stats stats_one_to(std::size_t n) {
  gran::sample_stats s;
  for (std::size_t i = n; i > 0; --i) s.add(static_cast<double>(i));
  return s;
}

}  // namespace

TEST(Percentile, InterpolatedValueWithSampleCounts) {
  const gran::sample_stats s = stats_one_to(100);
  const percentile_result p50 = percentile(s, 50);
  EXPECT_DOUBLE_EQ(p50.value, 50.5);
  EXPECT_EQ(p50.samples, 100u);
  EXPECT_EQ(p50.beyond, 50u);
  EXPECT_DOUBLE_EQ(percentile(s, 99).value, 99.01);
  EXPECT_EQ(percentile(s, 100).value, 100);
  EXPECT_EQ(percentile(s, 100).beyond, 0u);
}

TEST(Percentile, P99NeedsTenSamplesBeyondIt) {
  const percentile_result enough = percentile(stats_one_to(902), 99);
  EXPECT_NEAR(enough.value, 892.99, 1e-9);
  EXPECT_EQ(enough.beyond, 10u);
  EXPECT_TRUE(enough.reportable);

  const percentile_result short_by_one = percentile(stats_one_to(900), 99);
  EXPECT_EQ(short_by_one.beyond, 9u);
  EXPECT_FALSE(short_by_one.reportable);

  EXPECT_TRUE(percentile(stats_one_to(20), 50).reportable);
  EXPECT_FALSE(percentile(stats_one_to(19), 50).reportable);
}

TEST(Percentile, TiesAtTheValueAreNotBeyondIt) {
  gran::sample_stats s;
  for (int i = 0; i < 50; ++i) s.add(1.0);
  const percentile_result p = percentile(s, 50);
  EXPECT_EQ(p.value, 1.0);
  EXPECT_EQ(p.beyond, 0u);
  EXPECT_FALSE(p.reportable);
}

TEST(Percentile, EmptyOrOutOfRangeIsUnreportable) {
  EXPECT_FALSE(percentile(gran::sample_stats{}, 50).reportable);
  EXPECT_EQ(percentile(gran::sample_stats{}, 50).samples, 0u);
  EXPECT_FALSE(percentile(stats_one_to(100), 0).reportable);
  EXPECT_FALSE(percentile(stats_one_to(100), 101).reportable);
}

TEST(GridCompare, IdenticalGridsMatch) {
  const std::vector<double> a = one_to(1000);
  EXPECT_EQ(grid_mismatches(a, a), 0u);
}

TEST(GridCompare, FlagsAPerturbedGrid) {
  const std::vector<double> want = one_to(1000);
  std::vector<double> got = want;
  got[500] = std::nextafter(got[500], 1e300);  // one ULP
  EXPECT_EQ(grid_mismatches(got, want), 1u);
  got[0] = -0.0;
  std::vector<double> zero = want;
  zero[0] = 0.0;
  EXPECT_EQ(grid_mismatches(got, zero), 2u);  // -0.0 is not bit-equal to 0.0
}

TEST(GridCompare, SizeMismatchCountsEveryPoint) {
  EXPECT_EQ(grid_mismatches(one_to(10), one_to(12)), 12u);
}

TEST(RequestAudit, CleanStretchPasses) {
  const std::vector<std::uint32_t> runs(100, 1);
  const std::vector<std::uint8_t> accepted(100, 1);
  EXPECT_EQ(audit_requests(runs, accepted, 100, 100, 0, 0).failures(), 0u);
}

TEST(RequestAudit, FlagsLostRequest) {
  std::vector<std::uint32_t> runs(100, 1);
  const std::vector<std::uint8_t> accepted(100, 1);
  runs[42] = 0;
  const service_audit a = audit_requests(runs, accepted, 100, 100, 0, 0);
  EXPECT_EQ(a.lost, 1u);
  EXPECT_EQ(a.failures(), 1u);
}

TEST(RequestAudit, FlagsDuplicatedRequest) {
  std::vector<std::uint32_t> runs(100, 1);
  const std::vector<std::uint8_t> accepted(100, 1);
  runs[7] = 2;
  const service_audit a = audit_requests(runs, accepted, 100, 100, 0, 0);
  EXPECT_EQ(a.duplicated, 1u);
  EXPECT_EQ(a.failures(), 1u);
}

TEST(RequestAudit, FlagsRunWithoutAdmission) {
  const std::vector<std::uint32_t> runs(10, 1);
  std::vector<std::uint8_t> accepted(10, 1);
  accepted[3] = 0;
  EXPECT_EQ(audit_requests(runs, accepted, 9, 9, 0, 0).unexpected, 1u);
}

TEST(RequestAudit, FlagsBrokenConservationAndBacklog) {
  const std::vector<std::uint32_t> runs(10, 1);
  const std::vector<std::uint8_t> accepted(10, 1);
  const service_audit leak = audit_requests(runs, accepted, 10, 9, 0, 0);
  EXPECT_FALSE(leak.conserved);
  EXPECT_EQ(leak.failures(), 1u);
  EXPECT_TRUE(audit_requests(runs, accepted, 10, 8, 2, 0).conserved);  // shed counts
  const service_audit stuck = audit_requests(runs, accepted, 10, 10, 0, 1);
  EXPECT_FALSE(stuck.drained);
  EXPECT_EQ(stuck.failures(), 1u);
}
