#include "algo/chunking.hpp"

#include <algorithm>

#include "util/assert.hpp"

namespace gran::algo {

std::size_t resolve_chunk(const chunking& policy, std::size_t items, int workers) {
  GRAN_ASSERT(workers >= 1);
  if (const auto* fixed = std::get_if<static_chunk>(&policy))
    return std::max<std::size_t>(1, fixed->size);
  if (const auto* autoc = std::get_if<auto_chunk>(&policy)) {
    const std::size_t tasks = std::max<std::size_t>(
        1, static_cast<std::size_t>(workers) * std::max<std::size_t>(1, autoc->tasks_per_worker));
    return std::max<std::size_t>(1, (items + tasks - 1) / tasks);
  }
  // Algorithms that cannot split mid-flight (reductions, scans) get the
  // lazy policy's coarse starting blocks as a plain static chunk.
  const auto& lazy = std::get<lazy_chunk>(policy);
  const std::size_t tasks = std::max<std::size_t>(
      1, lazy.initial_tasks != 0 ? lazy.initial_tasks
                                 : static_cast<std::size_t>(workers));
  return std::max<std::size_t>(1, (items + tasks - 1) / tasks);
}

}  // namespace gran::algo
