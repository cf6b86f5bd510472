#include "harness.hpp"

#include <algorithm>
#include <bit>

namespace perfbench {

percentile_result percentile(const gran::sample_stats& s, double p) {
  percentile_result r;
  r.samples = s.count();
  if (r.samples == 0 || !(p > 0) || p > 100) return r;
  r.value = s.percentile(p);
  r.beyond = static_cast<std::size_t>(std::count_if(
      s.samples().begin(), s.samples().end(), [&](double x) { return x > r.value; }));
  r.reportable = r.beyond >= min_beyond;
  return r;
}

std::size_t grid_mismatches(std::span<const double> got, std::span<const double> want) {
  if (got.size() != want.size()) return std::max(got.size(), want.size());
  std::size_t bad = 0;
  for (std::size_t i = 0; i < got.size(); ++i)
    bad += std::bit_cast<std::uint64_t>(got[i]) != std::bit_cast<std::uint64_t>(want[i]);
  return bad;
}

service_audit audit_requests(std::span<const std::uint32_t> runs,
                             std::span<const std::uint8_t> accepted,
                             std::uint64_t n_accepted, std::uint64_t n_completed,
                             std::uint64_t n_shed, std::int64_t backlog) {
  service_audit a;
  const std::size_t n = std::max(runs.size(), accepted.size());
  for (std::size_t i = 0; i < n; ++i) {
    const std::uint32_t ran = i < runs.size() ? runs[i] : 0;
    const bool in = i < accepted.size() && accepted[i] != 0;
    if (in && ran == 0) ++a.lost;
    if (ran > 1) ++a.duplicated;
    if (!in && ran > 0) ++a.unexpected;
  }
  a.conserved = n_accepted == n_completed + n_shed;
  a.drained = backlog == 0;
  return a;
}

}  // namespace perfbench
