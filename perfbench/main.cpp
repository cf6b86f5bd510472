// End-to-end benchmark program. Runs one workload through the runtime's
// public API (thread_manager, stencil::run_futurized / run_serial,
// service::task_service::submit), checks every output, and prints the
// metrics as the last stdout line in JSON. run.py builds and wraps it.
//
//   perfbench --workload heat-fine|heat-floor|service-poisson --seed N
//             --seconds S --trace 0|1 [--inject grid|lost|dup]
//
// --trace 0 measures the end-to-end metrics with nothing but the
// benchmark's own timestamps. --trace 1 adds spans around the benchmark's
// calls into each layer (per-solve counter snapshots, per-request submit
// and body-start stamps) on alternate solves / stretches, and reports the
// per-layer metrics plus what the spans cost. --inject perturbs one output
// so the checks can be seen to fail.
#include <pthread.h>
#include <sched.h>
#include <sys/resource.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <limits>
#include <memory>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "async/async.hpp"
#include "harness.hpp"
#include "service/arrival.hpp"
#include "service/service.hpp"
#include "stencil/futurized.hpp"
#include "stencil/serial.hpp"
#include "threads/thread_manager.hpp"

using namespace gran;
using perfbench::percentile;
using perfbench::percentile_result;

namespace {

using clk = std::chrono::steady_clock;

double seconds_since(clk::time_point t0) {
  return std::chrono::duration<double>(clk::now() - t0).count();
}

std::int64_t ns_since(clk::time_point t0) {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(clk::now() - t0).count();
}

// Heat-ring set-ups per run; setup_s is their median. The last one's
// manager is the one the timed phase uses.
constexpr int heat_setup_reps = 5;

struct options {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
  std::string inject;  // "", "grid", "lost" or "dup"
};

// Collects the result: metrics by mode, check counts, and the detail that
// goes into the run record (parameters, sample counts, percentile ranks).
class report {
 public:
  void metric(const std::string& name, double value, const char* unit) {
    metrics_ << (metrics_.tellp() > 0 ? ", " : "") << '"' << name << "\": {\"value\": "
             << number(value) << ", \"unit\": \"" << unit << "\"}";
    std::printf("  %-28s %16.6g %s\n", name.c_str(), value, unit);
  }
  void detail(const std::string& key, double value) {
    detail_raw(key, number(value));
  }
  void detail(const std::string& key, const std::string& text) {
    detail_raw(key, '"' + text + '"');
  }
  void detail(const std::string& key, const percentile_result& p) {
    std::ostringstream os;
    os << "{\"value\": " << number(p.value) << ", \"samples\": " << p.samples
       << ", \"beyond\": " << p.beyond
       << ", \"reportable\": " << (p.reportable ? "true" : "false") << "}";
    detail_raw(key, os.str());
  }
  void detail_list(const std::string& key, const sample_stats& s) {
    const std::vector<double>& values = s.samples();
    std::ostringstream os;
    os << '[';
    for (std::size_t i = 0; i < values.size(); ++i) os << (i ? ", " : "") << number(values[i]);
    os << ']';
    detail_raw(key, os.str());
  }

  // One checked operation; returns `ok` so callers can log failures.
  bool check(bool ok) {
    ++attempted_;
    failed_ += ok ? 0 : 1;
    return ok;
  }
  void add_checks(std::uint64_t attempted, std::uint64_t failed) {
    attempted_ += attempted;
    failed_ += failed;
  }
  std::uint64_t failed() const { return failed_; }

  std::string json() const {
    std::ostringstream os;
    os << "{\"correct\": " << (failed_ == 0 ? "true" : "false")
       << ", \"attempted\": " << attempted_ << ", \"failed\": " << failed_
       << ", \"metrics\": {" << metrics_.str() << "}, \"detail\": {" << detail_.str()
       << "}}";
    return os.str();
  }

 private:
  static std::string number(double v) {
    if (!std::isfinite(v)) return "null";
    char buf[32];
    std::snprintf(buf, sizeof buf, "%.10g", v);
    return buf;
  }
  void detail_raw(const std::string& key, const std::string& value) {
    detail_ << (detail_.tellp() > 0 ? ", " : "") << '"' << key << "\": " << value;
  }

  std::ostringstream metrics_, detail_;
  std::uint64_t attempted_ = 0, failed_ = 0;
};

double peak_rss_mb() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // ru_maxrss is KiB
}

double ratio(double num, double den) { return den != 0 ? num / den : 0; }

// Every per-layer metric with its unit, in report order. A layer a
// workload does not exercise reads 0 ("no samples").
struct layer_metric {
  const char* name;
  const char* unit;
};
constexpr layer_metric per_layer_metrics[] = {
    {"threads.tasks", "count"},
    {"threads.sched_us_per_task", "us"},
    {"threads.idle_rate", "ratio"},
    {"threads.pending_miss_ratio", "ratio"},
    {"threads.stolen_frac", "ratio"},
    {"fiber.converted_per_task", "ratio"},
    {"fiber.phases_per_task", "ratio"},
    {"async.body_us_per_task", "us"},
    {"stencil.ns_per_update", "ns"},
    {"stencil.serial_s", "s"},
    {"service.submit_ns_p50", "ns"},
    {"service.submit_ns_p99", "ns"},
    {"service.queue_wait_us_p50", "us"},
    {"service.queue_wait_us_p99", "us"},
    {"service.run_us_p50", "us"},
    {"service.backlog_peak", "count"},
    {"service.gen_late_us_p99", "us"},
    {"service.sojourn_p99_us", "us"},
    {"ladder.unexplained_frac", "ratio"},
    {"perf.trace_overhead_frac", "ratio"},
};

// Runtime-counter view shared by both workloads: the threads and fiber
// rungs plus the non-kernel task body and the ladder's closing check.
// `kernel_ns` is the kernel time the benchmark attributes to these tasks;
// `wall_s` × `workers` is the worker capacity the counters should cover.
void report_counter_layers(report& rep, const thread_manager::totals& c,
                           double tasks_per_unit, double kernel_ns, double wall_s,
                           int workers, std::vector<std::pair<std::string, double>>& out) {
  const double tasks = static_cast<double>(c.tasks_executed);
  const double overhead_ns =
      std::max(0.0, static_cast<double>(c.func_ns) - static_cast<double>(c.exec_ns));
  out.emplace_back("threads.tasks", tasks_per_unit);
  out.emplace_back("threads.sched_us_per_task", ratio(overhead_ns, tasks) * 1e-3);
  out.emplace_back("threads.idle_rate", ratio(overhead_ns, static_cast<double>(c.func_ns)));
  out.emplace_back("threads.pending_miss_ratio",
                   ratio(static_cast<double>(c.queues.pending_misses),
                         static_cast<double>(c.queues.pending_accesses)));
  out.emplace_back("threads.stolen_frac", ratio(static_cast<double>(c.tasks_stolen), tasks));
  out.emplace_back("fiber.converted_per_task",
                   ratio(static_cast<double>(c.tasks_converted), tasks));
  out.emplace_back("fiber.phases_per_task",
                   ratio(static_cast<double>(c.phases_executed), tasks));
  out.emplace_back("async.body_us_per_task",
                   (ratio(static_cast<double>(c.exec_ns), tasks) - ratio(kernel_ns, tasks)) * 1e-3);
  // The rungs: kernel + non-kernel body (together Σt_exec) + scheduling and
  // idle (Σt_func − Σt_exec; the counters cannot split the two). Since the
  // body is Σt_exec less the kernel, the rungs add up to Σt_func whatever
  // the kernel calibration says; a calibration above Σt_exec (a negative
  // body) is flagged in the record instead.
  const double ladder_ns = static_cast<double>(c.exec_ns) + overhead_ns;
  out.emplace_back("ladder.unexplained_frac", 1.0 - ratio(ladder_ns, wall_s * 1e9 * workers));
  const bool split_ok = kernel_ns <= static_cast<double>(c.exec_ns);
  rep.detail("kernel_split_valid", split_ok ? "true" : "false");
  if (!split_ok)
    std::printf("WARN: kernel time %.0f ns exceeds the tasks' exec time %.0f ns; "
                "async.body_us_per_task is not valid\n",
                kernel_ns, static_cast<double>(c.exec_ns));
  rep.detail("counter_tasks_executed", tasks);
  rep.detail("counter_func_ns", static_cast<double>(c.func_ns));
  rep.detail("counter_exec_ns", static_cast<double>(c.exec_ns));
  rep.detail("kernel_ns", kernel_ns);
}

void emit_per_layer(report& rep, const std::vector<std::pair<std::string, double>>& got) {
  for (const layer_metric& m : per_layer_metrics) {
    double v = 0;
    for (const auto& [name, value] : got)
      if (name == m.name) v = value;
    rep.metric(m.name, v, m.unit);
  }
}

// ---------------------------------------------------------------------------
// Heat ring (paper §I-C): 50 steps of the futurized 3-point stencil.

struct heat_shape {
  std::size_t points;
  std::size_t partition;
};

constexpr int heat_workers = 4;
constexpr std::size_t heat_steps = 50;
// No step window (params::max_steps_in_flight stays 0, as in HPX's
// 1d_stencil_4), so every row of a solve stays live: 1.3 GB on heat-fine,
// 3.3 GB on heat-floor. A four-row window cuts that to 0.2 / 0.5 GB but
// makes the workers wait on the constructing thread: beside one competing
// CPU hog, heat-floor's median solve rose from about 0.7 to 0.98 s with
// the window and did not rise without it.

// The serial reference rate comes from run_serial on a ring small enough
// to stay in one core's L2 (two 512 KiB arrays), scaled to the workload's
// update count. A full-size serial solve streams two 16-64 MB arrays and,
// on a shared host, slows far more than the futurized solve whenever the
// memory system is busy, so efficiency moved against throughput. The
// probes run as tasks on the solve's own workers, `heat_workers` at once:
// probe threads of their own, unpinned beside the pinned workers, read
// 4x slow in some runs.
constexpr std::size_t probe_points = 65'536;
constexpr int probes_per_solve = 2;

// Written by every calibration call so none is optimised away.
volatile double kernel_sink = 0;

// Median ns of one partition_step call on warm, partition-sized blocks:
// the kernel share of a task's Σt_exec (the ladder's bottom rung).
double calibrate_kernel_ns(const stencil::params& p, const std::vector<double>& grid) {
  const std::size_t n = p.partition_size;
  const std::vector<double> left(grid.begin(), grid.begin() + static_cast<std::ptrdiff_t>(n));
  const std::vector<double> mid(grid.begin() + static_cast<std::ptrdiff_t>(n),
                                grid.begin() + static_cast<std::ptrdiff_t>(2 * n));
  const std::vector<double> right(grid.begin() + static_cast<std::ptrdiff_t>(2 * n),
                                  grid.begin() + static_cast<std::ptrdiff_t>(3 * n));
  const std::size_t calls = std::max<std::size_t>(1, 4'000'000 / n);
  sample_stats per_call;
  for (int rep = 0; rep < 5; ++rep) {
    const auto t0 = clk::now();
    for (std::size_t i = 0; i < calls; ++i) kernel_sink = stencil::partition_step(p, left, mid, right)[0];
    per_call.add(static_cast<double>(ns_since(t0)) / static_cast<double>(calls));
  }
  return per_call.median();
}

// Runs `probes_per_solve` serial probes in each of `heat_workers` tasks on
// `tm`'s workers; adds each probe's time to `probe_s` and returns the
// number of probes whose grid differs from `want`.
std::size_t run_probes(thread_manager& tm, const stencil::params& probe,
                       const std::vector<double>& want, sample_stats& probe_s) {
  struct probe_times {
    double s[probes_per_solve];
    std::size_t bad;
  };
  std::vector<future<probe_times>> tasks;
  for (int w = 0; w < heat_workers; ++w) {
    tasks.push_back(async_on(tm, task_priority::normal, [&probe, &want] {
      probe_times t{{}, 0};
      for (double& s : t.s) {
        const auto t0 = clk::now();
        const std::vector<double> out = stencil::run_serial(probe);
        s = seconds_since(t0);
        t.bad += perfbench::grid_mismatches(out, want) != 0;
      }
      return t;
    }));
  }
  std::size_t failed = 0;
  for (future<probe_times>& f : tasks) {
    const probe_times t = f.get();
    for (const double s : t.s) probe_s.add(s);
    failed += t.bad;
  }
  return failed;
}

void run_heat(const options& o, const heat_shape& shape, report& rep) {
  stencil::params p;
  p.total_points = shape.points;
  p.partition_size = shape.partition;
  p.time_steps = heat_steps;
  p.normalize();
  const double updates = static_cast<double>(p.total_points * p.time_steps);
  std::printf("heat ring: %zu points, %zu-point partitions, %zu steps, %zu tasks, %d workers\n",
              p.total_points, p.partition_size, p.time_steps, p.num_tasks(), heat_workers);
  rep.detail("points", static_cast<double>(p.total_points));
  rep.detail("partition", static_cast<double>(p.partition_size));
  rep.detail("steps", static_cast<double>(p.time_steps));
  rep.detail("workers", heat_workers);

  const std::vector<double> reference = stencil::run_serial(p);
  auto check_grid = [&](std::vector<double>& grid, const char* what, bool perturb) {
    if (perturb) grid[grid.size() / 2] = std::nextafter(grid[grid.size() / 2], 1e300);
    const std::size_t bad = perfbench::grid_mismatches(grid, reference);
    if (!rep.check(bad == 0))
      std::printf("FAIL: %s differs from run_serial at %zu points\n", what, bad);
  };

  scheduler_config cfg;
  cfg.num_workers = heat_workers;
  sample_stats setup_s;
  std::unique_ptr<thread_manager> tm;
  for (int i = 0; i < heat_setup_reps; ++i) {
    tm.reset();  // one manager at a time: they share the counter registry
    const auto t0 = clk::now();
    tm = std::make_unique<thread_manager>(cfg);
    stencil::run_result warm = stencil::run_futurized(*tm, p);
    setup_s.add(seconds_since(t0));
    check_grid(warm.state, "warm-up solve", false);
  }

  const double kernel_ns = o.trace ? calibrate_kernel_ns(p, reference) : 0;

  stencil::params probe = p;
  probe.total_points = probe_points;
  const std::vector<double> probe_reference = stencil::run_serial(probe);

  // Timed phase: each futurized solve is followed by a round of serial
  // probes, so host drift hits both sides of the efficiency ratio alike.
  // A solve's time is run_futurized's own measured section (dataflow
  // construction through the last partition), without the seed fill and
  // the result copy. In the traced run, odd iterations are the traced ones.
  sample_stats solve_s, traced_solve_s, probe_s;
  thread_manager::totals sum{};
  double traced_wall_s = 0;
  const auto deadline = clk::now() + std::chrono::duration<double>(o.seconds);
  for (std::size_t it = 0; it < 2 || clk::now() < deadline; ++it) {
    const bool traced = o.trace && it % 2 == 1;
    if (traced) tm->reset_counters();
    const auto t0 = clk::now();
    stencil::run_result r = stencil::run_futurized(*tm, p);
    const double s = r.elapsed_s;
    if (traced) {
      const thread_manager::totals c = tm->counter_totals();
      sum.tasks_executed += c.tasks_executed;
      sum.phases_executed += c.phases_executed;
      sum.exec_ns += c.exec_ns;
      sum.func_ns += c.func_ns;
      sum.tasks_stolen += c.tasks_stolen;
      sum.tasks_converted += c.tasks_converted;
      sum.queues.pending_accesses += c.queues.pending_accesses;
      sum.queues.pending_misses += c.queues.pending_misses;
      traced_wall_s += seconds_since(t0);  // the span the counters cover
      traced_solve_s.add(s);
    } else {
      solve_s.add(s);
    }
    check_grid(r.state, "timed solve", it == 0 && o.inject == "grid");

    // A probe task's own bookkeeping may land after its future is ready,
    // so the traced run probes only after traced solves: an untraced solve
    // then separates the probes from the next counter reset.
    if (o.trace && !traced) continue;
    const std::size_t bad = run_probes(*tm, probe, probe_reference, probe_s);
    rep.add_checks(static_cast<std::uint64_t>(heat_workers) * probes_per_solve, bad);
    if (bad > 0) std::printf("FAIL: %zu serial probes differ from the first probe run\n", bad);
  }
  tm.reset();

  const double solve_med = solve_s.median();
  const double ns_per_update =
      probe_s.median() / static_cast<double>(probe.total_points * probe.time_steps) * 1e9;
  const double serial_s = ns_per_update * updates * 1e-9;
  rep.detail("probe_points", static_cast<double>(probe.total_points));
  rep.detail_list("setup_s_samples", setup_s);
  rep.detail_list("solve_s_samples", solve_s);
  rep.detail_list("probe_s_samples", probe_s);
  std::printf("%zu timed solves (median %.4f s); serial %.3f ns/update from %zu probes "
              "(%.4f s for this ring)\n",
              solve_s.count() + traced_solve_s.count(), solve_med, ns_per_update, probe_s.count(),
              serial_s);

  if (!o.trace) {
    sample_stats rates;
    for (const double s : solve_s.samples()) rates.add(updates / s);
    rep.metric("throughput_per_s", rates.median(), "1/s");
    rep.metric("efficiency", ratio(serial_s, solve_med * heat_workers), "ratio");
    rep.metric("latency_p50_us", solve_med * 1e6, "us");
    rep.metric("setup_s", setup_s.median(), "s");
    rep.metric("peak_rss_mb", peak_rss_mb(), "MB");
    return;
  }

  const double n_traced = static_cast<double>(traced_solve_s.count());
  const double kernel_calls = static_cast<double>(p.num_tasks()) * n_traced;
  std::vector<std::pair<std::string, double>> layers;
  report_counter_layers(rep, sum, ratio(static_cast<double>(sum.tasks_executed), n_traced),
                        kernel_ns * kernel_calls, traced_wall_s, heat_workers, layers);
  layers.emplace_back("stencil.ns_per_update", ns_per_update);
  layers.emplace_back("stencil.serial_s", serial_s);
  // Price of the traced run: share of throughput lost on traced solves.
  layers.emplace_back("perf.trace_overhead_frac",
                      1.0 - ratio(solve_med, traced_solve_s.median()));
  emit_per_layer(rep, layers);
}

// ---------------------------------------------------------------------------
// Open-loop Poisson service: one client (this thread) feeds three workers.

constexpr double service_rate = 30'000;       // offered requests/s
constexpr std::int64_t service_grain_ns = 20'000;
constexpr int service_workers = 3;
constexpr double service_warm_s = 0.1;        // arrivals per set-up stretch
constexpr int service_setup_reps = 15;
constexpr std::int64_t ontime_limit_ns = 1'000'000;
// The generator is behind when its p99 send lateness reaches this; such a
// run measured the client, not the service, and is marked invalid.
constexpr double gen_late_limit_us = 200;
// Traced run: requests due in odd stretches of this length are traced.
constexpr std::int64_t trace_slice_ns = 250'000'000;

void spin_ns(std::int64_t ns) {
  const auto t0 = clk::now();
  while (ns_since(t0) < ns) {
  }
}

// Sleeps through long gaps, spins the last millisecond (a yield can hand
// the CPU to a worker for a whole time slice); returns the send time.
clk::time_point pace_until(clk::time_point due) {
  for (;;) {
    const auto now = clk::now();
    if (now >= due) return now;
    if (due - now > std::chrono::milliseconds(2))
      std::this_thread::sleep_for(due - now - std::chrono::milliseconds(1));
  }
}

// Pins the calling thread (the client) to an allowed CPU that no worker of
// `tm` is pinned to, so the spinning generator never time-slices with a
// worker; the destructor restores the old mask, which matters because the
// runtime plans its worker pins from the constructing thread's mask.
class client_pin {
 public:
  explicit client_pin(const thread_manager& tm) {
    if (pthread_getaffinity_np(pthread_self(), sizeof saved_, &saved_) != 0) return;
    cpu_set_t free = saved_;
    for (const auto& w : tm.plan().workers)
      if (w.cpu >= 0) CPU_CLR(w.cpu, &free);
    for (int c = 0; c < CPU_SETSIZE && cpu_ < 0; ++c) {
      if (!CPU_ISSET(c, &free)) continue;
      cpu_set_t one;
      CPU_ZERO(&one);
      CPU_SET(c, &one);
      if (pthread_setaffinity_np(pthread_self(), sizeof one, &one) == 0) cpu_ = c;
    }
  }
  ~client_pin() {
    if (cpu_ >= 0) pthread_setaffinity_np(pthread_self(), sizeof saved_, &saved_);
  }
  client_pin(const client_pin&) = delete;
  client_pin& operator=(const client_pin&) = delete;

  int cpu() const { return cpu_; }  // -1: no free CPU, the client floats

 private:
  cpu_set_t saved_{};
  int cpu_ = -1;
};

// One open-loop stretch of arrivals: the schedule plus every request's own
// timestamps (ns from the stretch origin) — the spans of the service layer.
struct stretch {
  std::vector<std::int64_t> due, sent, end;
  std::vector<std::int64_t> submitted, start;  // traced requests only
  std::vector<std::uint8_t> accepted, traced;
  std::unique_ptr<std::atomic<std::uint32_t>[]> runs;
  std::int64_t finished = 0;  // origin → quiesced
  std::size_t inject_at = std::numeric_limits<std::size_t>::max();
  std::string inject;

  explicit stretch(std::vector<std::int64_t> schedule)
      : due(std::move(schedule)),
        sent(due.size()),
        end(due.size(), -1),
        submitted(due.size()),
        start(due.size()),
        accepted(due.size()),
        traced(due.size()),
        runs(new std::atomic<std::uint32_t>[due.size()]) {
    for (std::size_t i = 0; i < due.size(); ++i) runs[i].store(0, std::memory_order_relaxed);
  }
  std::size_t size() const { return due.size(); }
};

void run_stretch(service::task_service& svc, stretch& st, bool trace) {
  const auto origin = clk::now();
  for (std::size_t i = 0; i < st.size(); ++i) {
    const bool traced = trace && (st.due[i] / trace_slice_ns) % 2 == 1;
    st.traced[i] = traced;
    const auto sent = pace_until(origin + std::chrono::nanoseconds(st.due[i]));
    st.sent[i] = std::chrono::duration_cast<std::chrono::nanoseconds>(sent - origin).count();
    const service::submit_status s = svc.submit([&st, i, origin, traced] {
      if (traced) st.start[i] = ns_since(origin);
      spin_ns(service_grain_ns);
      st.end[i] = ns_since(origin);
      const std::uint32_t marks = i != st.inject_at ? 1 : st.inject == "dup" ? 2 : 0;
      st.runs[i].fetch_add(marks, std::memory_order_release);
    });
    if (traced) st.submitted[i] = ns_since(origin);
    st.accepted[i] = s == service::submit_status::accepted;
  }
  svc.quiesce();
  st.finished = ns_since(origin);
}

// Audits a quiesced stretch; each lost/duplicated request and each broken
// conservation law is one failed operation.
void audit_stretch(report& rep, const service::task_service& svc, const stretch& st,
                   const service::task_service::stats& before) {
  const service::task_service::stats s = svc.snapshot();
  std::vector<std::uint32_t> runs(st.size());
  for (std::size_t i = 0; i < st.size(); ++i) runs[i] = st.runs[i].load(std::memory_order_acquire);
  const perfbench::service_audit a = perfbench::audit_requests(
      runs, st.accepted, s.accepted - before.accepted, s.completed - before.completed,
      s.shed - before.shed, s.backlog);
  std::uint64_t refused = 0;
  for (const std::uint8_t ok : st.accepted) refused += ok ? 0 : 1;
  rep.add_checks(st.size() + 2, a.failures() + refused);
  if (a.failures() + refused > 0)
    std::printf("FAIL: requests lost %llu, duplicated %llu, unexpected %llu, refused %llu, "
                "conserved %d, drained %d\n",
                static_cast<unsigned long long>(a.lost),
                static_cast<unsigned long long>(a.duplicated),
                static_cast<unsigned long long>(a.unexpected),
                static_cast<unsigned long long>(refused), a.conserved, a.drained);
}

sample_stats sample(const stretch& st, bool traced_only,
                    std::int64_t (*f)(const stretch&, std::size_t)) {
  sample_stats v;
  v.reserve(st.size());
  for (std::size_t i = 0; i < st.size(); ++i)
    if (st.accepted[i] && (!traced_only || st.traced[i])) v.add(static_cast<double>(f(st, i)));
  return v;
}

void run_service(const options& o, report& rep) {
  service::arrival_config ac;
  ac.kind = service::arrival_kind::poisson;
  ac.rate_per_s = service_rate;
  ac.seed = o.seed;
  ac.grain_min_ns = ac.grain_max_ns = static_cast<double>(service_grain_ns);
  const std::vector<service::arrival_event> arrivals =
      service::generate_arrivals(ac, service_warm_s + o.seconds);
  // Every set-up stretch replays the same warm-up arrivals.
  std::vector<std::int64_t> warm_due, due;
  for (const service::arrival_event& ev : arrivals) {
    const auto ns = static_cast<std::int64_t>(std::llround(ev.t_s * 1e9));
    if (ev.t_s < service_warm_s)
      warm_due.push_back(ns);
    else
      due.push_back(ns - static_cast<std::int64_t>(service_warm_s * 1e9));
  }
  std::printf("service: poisson %.0f req/s of %lld us requests, 1 client, %d workers, "
              "%zu warm-up + %zu measured arrivals\n",
              service_rate, static_cast<long long>(service_grain_ns / 1000), service_workers,
              warm_due.size(), due.size());
  rep.detail("rate_per_s", service_rate);
  rep.detail("grain_ns", static_cast<double>(service_grain_ns));
  rep.detail("workers", service_workers);
  rep.detail("clients", 1);
  rep.detail("warm_s", service_warm_s);
  rep.detail("ontime_limit_ns", static_cast<double>(ontime_limit_ns));

  scheduler_config cfg;
  cfg.num_workers = service_workers;
  // A set-up is construction plus a warm-up stretch, less the stretch's
  // paced arrival span: only the drain after the last due arrival counts,
  // so setup_s measures the manager and the service, not the schedule.
  sample_stats setup_s;
  std::unique_ptr<thread_manager> tm;
  std::unique_ptr<service::task_service> svc;
  for (int i = 0; i < service_setup_reps; ++i) {
    svc.reset();
    tm.reset();
    const auto t0 = clk::now();
    tm = std::make_unique<thread_manager>(cfg);
    svc = std::make_unique<service::task_service>(*tm);
    const double construct_s = seconds_since(t0);
    stretch warm(warm_due);
    const service::task_service::stats before = svc->snapshot();
    const client_pin pin(*tm);
    run_stretch(*svc, warm, false);
    setup_s.add(construct_s + static_cast<double>(warm.finished - warm.due.back()) * 1e-9);
    audit_stretch(rep, *svc, warm, before);
  }

  stretch st(due);
  if (o.inject == "lost" || o.inject == "dup") {
    st.inject = o.inject;
    st.inject_at = st.size() / 2;
  }
  const service::task_service::stats before = svc->snapshot();
  tm->reset_counters();
  {
    const client_pin pin(*tm);
    rep.detail("client_cpu", pin.cpu());
    run_stretch(*svc, st, o.trace);
  }
  const thread_manager::totals counters = tm->counter_totals();
  audit_stretch(rep, *svc, st, before);
  const service::task_service::stats snap = svc->snapshot();
  svc.reset();
  tm.reset();

  // Sojourn from the due time; refused requests never finish, so they are
  // ranked beyond every finished one.
  sample_stats sojourn_ns, sojourn_traced, sojourn_untraced;
  std::size_t ontime = 0, completed = 0;
  std::int64_t last_end = 0;
  for (std::size_t i = 0; i < st.size(); ++i) {
    const bool done = st.accepted[i] && st.end[i] >= 0;
    const double soj = done ? static_cast<double>(st.end[i] - st.due[i])
                            : std::numeric_limits<double>::max();
    sojourn_ns.add(soj);
    (st.traced[i] ? sojourn_traced : sojourn_untraced).add(soj);
    completed += done;
    ontime += done && st.end[i] - st.due[i] <= ontime_limit_ns;
    if (done) last_end = std::max(last_end, st.end[i]);
  }
  const percentile_result p50 = percentile(sojourn_ns, 50);
  const percentile_result p99 = percentile(sojourn_ns, 99);
  const percentile_result late99 = percentile(
      sample(st, false, [](const stretch& s, std::size_t i) { return s.sent[i] - s.due[i]; }), 99);
  const bool valid = late99.value * 1e-3 < gen_late_limit_us;
  rep.detail("valid", valid ? "true" : "false");
  rep.detail("sojourn_p50_ns", p50);
  rep.detail("sojourn_p99_ns", p99);
  rep.detail("gen_late_p99_ns", late99);
  rep.detail("offered", static_cast<double>(st.size()));
  rep.detail("completed", static_cast<double>(completed));
  rep.detail("ontime", static_cast<double>(ontime));
  rep.detail_list("setup_s_samples", setup_s);
  std::printf("%zu offered, %zu completed, %zu on time; sojourn p50 %.1f us p99 %.1f us "
              "(%zu samples); generator p99 late %.1f us%s\n",
              st.size(), completed, ontime, p50.value * 1e-3, p99.value * 1e-3, p99.samples,
              late99.value * 1e-3, valid ? "" : " -- INVALID: generator fell behind");

  if (!o.trace) {
    rep.metric("throughput_per_s", ratio(static_cast<double>(completed), last_end * 1e-9), "1/s");
    rep.metric("efficiency", ratio(static_cast<double>(ontime), static_cast<double>(st.size())),
               "ratio");
    rep.metric("latency_p50_us", p50.value * 1e-3, "us");
    rep.metric("setup_s", setup_s.median(), "s");
    rep.metric("peak_rss_mb", peak_rss_mb(), "MB");
    return;
  }

  // Percentiles of traced requests; one without ten samples beyond it
  // reads 0 and is flagged unreportable in the record.
  auto traced_pct = [&](const char* key, double p, double scale,
                        std::int64_t (*f)(const stretch&, std::size_t)) {
    const percentile_result r = percentile(sample(st, true, f), p);
    rep.detail(key, r);
    return r.reportable ? r.value * scale : 0.0;
  };
  const auto submit = [](const stretch& s, std::size_t i) { return s.submitted[i] - s.sent[i]; };
  const auto wait = [](const stretch& s, std::size_t i) { return s.start[i] - s.due[i]; };
  const auto run = [](const stretch& s, std::size_t i) { return s.end[i] - s.start[i]; };
  const double kernel_ns = sample(st, true, run).mean() * static_cast<double>(completed);

  std::vector<std::pair<std::string, double>> layers;
  report_counter_layers(rep, counters, static_cast<double>(counters.tasks_executed), kernel_ns,
                        st.finished * 1e-9, service_workers, layers);
  layers.emplace_back("service.submit_ns_p50", traced_pct("submit_ns_p50", 50, 1, submit));
  layers.emplace_back("service.submit_ns_p99", traced_pct("submit_ns_p99", 99, 1, submit));
  layers.emplace_back("service.queue_wait_us_p50", traced_pct("queue_wait_ns_p50", 50, 1e-3, wait));
  layers.emplace_back("service.queue_wait_us_p99", traced_pct("queue_wait_ns_p99", 99, 1e-3, wait));
  layers.emplace_back("service.run_us_p50", traced_pct("run_ns_p50", 50, 1e-3, run));
  layers.emplace_back("service.backlog_peak", static_cast<double>(snap.backlog_peak));
  layers.emplace_back("service.gen_late_us_p99", late99.value * 1e-3);
  layers.emplace_back("service.sojourn_p99_us", p99.reportable ? p99.value * 1e-3 : 0.0);
  // Price of the traced run: relative rise of median sojourn on traced
  // stretches over the untraced ones between them.
  layers.emplace_back("perf.trace_overhead_frac",
                      ratio(percentile(sojourn_traced, 50).value,
                            percentile(sojourn_untraced, 50).value) - 1.0);
  emit_per_layer(rep, layers);
}

bool parse(int argc, char** argv, options& o) {
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string key = argv[i], value = argv[i + 1];
    char* end = nullptr;
    if (key == "--workload") {
      o.workload = value;
    } else if (key == "--seed") {
      o.seed = std::strtoull(value.c_str(), &end, 10);
      if (*end != '\0') return false;
    } else if (key == "--seconds") {
      o.seconds = std::strtod(value.c_str(), &end);
      if (*end != '\0' || !(o.seconds > 0) || o.seconds > 3600) return false;
    } else if (key == "--trace") {
      if (value != "0" && value != "1") return false;
      o.trace = value == "1";
    } else if (key == "--inject") {
      if (value != "grid" && value != "lost" && value != "dup") return false;
      o.inject = value;
    } else {
      return false;
    }
  }
  return argc % 2 == 1 && !o.workload.empty();
}

}  // namespace

int main(int argc, char** argv) {
  options o;
  if (!parse(argc, argv, o)) {
    std::fprintf(stderr,
                 "usage: perfbench --workload heat-fine|heat-floor|service-poisson --seed N "
                 "--seconds S --trace 0|1 [--inject grid|lost|dup]\n");
    return 2;
  }
  report rep;
  rep.detail("workload", o.workload);
  rep.detail("seed", static_cast<double>(o.seed));
  rep.detail("seconds", o.seconds);
  rep.detail("trace", o.trace ? 1 : 0);
  rep.detail("build_type", PERFBENCH_BUILD_TYPE);
  if (!o.inject.empty()) rep.detail("inject", o.inject);

  if (o.workload == "heat-fine") {
    run_heat(o, {2'000'000, 250}, rep);
  } else if (o.workload == "heat-floor") {
    run_heat(o, {8'000'000, 10'000}, rep);
  } else if (o.workload == "service-poisson") {
    run_service(o, rep);
  } else {
    std::fprintf(stderr, "perfbench: unknown workload '%s'\n", o.workload.c_str());
    return 2;
  }
  std::printf("%s\n", rep.json().c_str());
  return rep.failed() == 0 ? 0 : 1;
}
