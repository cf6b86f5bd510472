// Thread-manager configuration. Mirrors the knobs the paper describes: the
// thread manager "is parameterized with the number of resources it can use,
// the number of OS threads mapped to its allocated resources, and its
// resource allocation policy (NUMA awareness)".
#pragma once

#include <string>

namespace gran {

struct scheduler_config {
  // Worker OS threads. 0 = one per logical CPU of the host topology.
  int num_workers = 0;

  // Overrides the number of NUMA domains the workers are spread over.
  // 0 = derive from the host topology.
  int numa_domains = 0;

  // Scheduling policy: "priority-local-fifo" (the paper's), "static-fifo"
  // (no stealing), "work-stealing-lifo" (Cilk-style ablation), or
  // "channel-steal" (message-passing steal requests over SPSC channels).
  // Empty = the GRAN_POLICY environment variable, falling back to
  // "priority-local-fifo".
  std::string policy;

  // Number of high-priority dual queues (owned by the first N workers).
  // 0 = one per worker.
  int high_priority_queues = 0;

  // Pin workers to CPUs according to the topology-aware assignment plan
  // (topo/pin_plan.hpp): physical cores first, SMT siblings last, restricted
  // to the allowed cpuset. Disabled automatically when the host has fewer
  // available CPUs than workers (oversubscribed test runs).
  bool pin_workers = true;

  // Pinning layout: "compact" (fill a NUMA domain's cores before the next),
  // "scatter" (round-robin cores across domains), or "none". Empty = the
  // GRAN_PIN environment variable, falling back to "compact".
  std::string pin;

  // Victim-selection order for the work-stealing policy: "hier" (SMT
  // sibling -> same NUMA domain -> remote domains, rotating start per tier)
  // or "flat" (the old fixed (w+k) % n ring — kept as the ablation
  // baseline). Empty = the GRAN_STEAL_ORDER environment variable, falling
  // back to "hier".
  std::string steal_order;

  // Channel-steal batching: "one" (single task per request), "half" (victim
  // sends half its deque), or "adaptive" (steal-one until a refill produces
  // no follow-on spawns, then escalate to steal-half; reset on spawn).
  // Empty = the GRAN_STEAL_BATCH environment variable, falling back to
  // "adaptive". Ignored by the other policies.
  std::string steal_batch;
};

}  // namespace gran
