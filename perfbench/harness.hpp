// Measurement and checking helpers of the end-to-end benchmark: the
// percentile rule, the bit-exact grid comparator and the request audit.
// Kept free of runtime headers beyond util/ so the unit tests build
// without the scheduler.
#pragma once

#include <cstddef>
#include <cstdint>
#include <span>
#include <vector>

#include "util/stats.hpp"

namespace perfbench {

// A percentile (gran::sample_stats' linear interpolation) with the sample
// counts that say whether it may be reported: only when at least
// `min_beyond` samples lie above it (so a p99 needs about 900 samples).
struct percentile_result {
  double value = 0;
  std::size_t samples = 0;
  std::size_t beyond = 0;  // samples strictly above the value
  bool reportable = false;
};

inline constexpr std::size_t min_beyond = 10;

// `p` in (0, 100].
percentile_result percentile(const gran::sample_stats& s, double p);

// Number of grid points whose bit patterns differ; a size mismatch counts
// every point of the longer grid. Bit equality, not ==, so -0.0 vs 0.0 and
// NaN payloads are differences too.
std::size_t grid_mismatches(std::span<const double> got, std::span<const double> want);

// Exactly-once and conservation check of one service stretch.
struct service_audit {
  std::uint64_t lost = 0;        // accepted, never ran
  std::uint64_t duplicated = 0;  // ran more than once
  std::uint64_t unexpected = 0;  // not accepted, yet ran
  bool conserved = true;         // accepted == completed + shed
  bool drained = true;           // backlog == 0 after quiesce

  std::uint64_t failures() const {
    return lost + duplicated + unexpected + (conserved ? 0 : 1) + (drained ? 0 : 1);
  }
};

// `runs[i]` is how often request i's body ran, `accepted[i]` whether
// submit() admitted it; the counts are the service's own snapshot.
service_audit audit_requests(std::span<const std::uint32_t> runs,
                             std::span<const std::uint8_t> accepted,
                             std::uint64_t n_accepted, std::uint64_t n_completed,
                             std::uint64_t n_shed, std::int64_t backlog);

}  // namespace perfbench
