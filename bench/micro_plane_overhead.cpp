// A/B micro-benchmark for the price of a measurement plane: end-to-end task
// throughput of a thread_manager running a fine-grained spin workload with
// the plane off and on.
//
//   --plane=trace      tracing (perf/trace.hpp) off / on. Also the cost of
//                      one trace_emit call with tracing disabled (the gate
//                      every scheduler hot path pays) and enabled.
//   --plane=telemetry  the streaming telemetry session (perf/telemetry.hpp)
//                      off / on: JSONL to /dev/null, 100 ms windows (the
//                      production default), stall watchdog. The always-on
//                      heartbeat stamping runs on both sides; this isolates
//                      the telemetry thread.
//   --plane=pmu        the PMU plane (perf/pmu.hpp) off / sw (rdtsc +
//                      rusage rung) / hw (whatever rung the kernel and the
//                      container grant; informational only).
//
// The sides run round-robin, one run each per round, over --reps rounds, so
// slow host drift lands on every side instead of biasing the delta. Each
// side records best-of, median and quartile distance of its throughput. A
// side's overhead is the median over rounds of off/side - 1: each run is
// compared with the off run next to it in time, and the median discards
// the rounds a host hiccup landed on.
//
// Gates, fixed per plane (exit 1 on a breach):
//   trace      best-of vs --baseline: off at most 1% slower, on 10%
//   telemetry  median on-overhead at most 2% (always checked); best-of off
//              vs --baseline at most 2% slower
//   pmu        best-of vs --baseline: off at most 1% slower, sw 10%
// A side the baseline does not record is skipped. A baseline that is not a
// JSON object or lacks off_tasks_per_s exits 2.
//
//   --plane=trace|telemetry|pmu   required
//   --tasks=N          tasks per run (default 40000)
//   --spin=N           per-task spin iterations (default 2000, ~1-2 us)
//   --workers=N        worker threads (default 4)
//   --reps=N           rounds (default 7)
//   --json=PATH        write machine-readable results
//   --baseline=PATH    gate against a previous --json dump
#include <algorithm>
#include <cmath>
#include <cstdint>
#include <fstream>
#include <functional>
#include <iostream>
#include <limits>
#include <memory>
#include <optional>
#include <sstream>
#include <string>
#include <utility>
#include <vector>

#include "bench/baseline.hpp"
#include "perf/pmu.hpp"
#include "perf/telemetry.hpp"
#include "perf/trace.hpp"
#include "threads/thread_manager.hpp"
#include "util/cli.hpp"
#include "util/stats.hpp"
#include "util/table.hpp"
#include "util/timer.hpp"

using namespace gran;

namespace {

// Per-task payload: a dependency-chained multiply loop the optimizer cannot
// collapse, sized by --spin to the ~1 us grain where plane overhead would
// show first.
volatile double g_sink = 0;
void spin_task(std::uint64_t iters) {
  double x = 1.000000119;
  for (std::uint64_t i = 0; i < iters; ++i) x = x * 1.000000119 + 1e-9;
  g_sink = x;
}

// One run: spawn `tasks` spin tasks on a fresh manager, wait for the pool to
// drain. Returns tasks per second. The manager is built after the side was
// entered, so workers pick up (or skip) the plane at start.
double run_throughput(int workers, std::uint64_t tasks, std::uint64_t spin) {
  scheduler_config cfg;
  cfg.num_workers = workers;
  cfg.pin_workers = false;
  thread_manager tm(cfg);
  stopwatch clock;
  for (std::uint64_t i = 0; i < tasks; ++i)
    tm.spawn([spin] { spin_task(spin); }, task_priority::normal, "spin");
  tm.wait_idle();
  return static_cast<double>(tasks) / clock.elapsed_s();
}

constexpr double no_gate = std::numeric_limits<double>::quiet_NaN();

// One side of the comparison. Its best-of throughput may fall at most
// `tolerance_pct` below the baseline's; no_gate = informational.
struct side {
  std::string name;  // JSON key prefix: <name>_tasks_per_s, ...
  double tolerance_pct;
  std::function<void()> enter = [] {};
  std::function<void()> leave = [] {};
};

// Plane-specific measurements beyond throughput: JSON key -> JSON literal.
using extras = std::vector<std::pair<std::string, std::string>>;

struct plane {
  std::vector<side> sides;  // sides[0] is the plane switched off
  // Bound on the median overhead of sides[1]; no_gate = none.
  double budget_pct = no_gate;
  // Run once before the rounds and once after them.
  std::function<void(extras&)> before = [](extras&) {};
  std::function<void(extras&)> after = [](extras&) {};
};

std::string literal(double v) {
  std::ostringstream os;
  os << v;
  return os.str();
}

// ns per trace_emit call in a tight loop: the disabled gate or the enabled
// emit path, depending on tracer state.
double emit_cost_ns(perf::trace_ring* ring, std::uint64_t ops) {
  stopwatch clock;
  for (std::uint64_t i = 0; i < ops; ++i)
    perf::trace_emit(ring, perf::trace_kind::task_begin, 0, i, 0, "bench");
  return clock.elapsed_s() * 1e9 / static_cast<double>(ops);
}

plane trace_plane() {
  perf::tracer& tr = perf::tracer::instance();
  plane p;
  // Large rings: measure emit cost, not drop handling.
  p.sides = {{"off", 1.0},
             {"on", 10.0, [&tr] { tr.enable(1 << 20); }, [&tr] { tr.disable(); }}};
  p.before = [&tr](extras& ex) {
    constexpr std::uint64_t ops = 20'000'000;
    // Disabled, ring pointer still live: the worst legal case.
    perf::trace_ring gate_ring(1 << 16);
    tr.disable();
    ex.emplace_back("gate_ns", literal(emit_cost_ns(&gate_ring, ops)));
    // Enabled, single producer into one ring.
    tr.enable(1 << 16);
    perf::trace_ring emit_ring(1 << 16);
    ex.emplace_back("emit_ns", literal(emit_cost_ns(&emit_ring, ops)));
    tr.disable();
  };
  return p;
}

plane telemetry_plane() {
  struct state {
    std::optional<perf::telemetry_session> session;
    std::uint64_t windows = 0;
  };
  auto st = std::make_shared<state>();
  plane p;
  p.sides = {{"off", 2.0},
             {"on", no_gate,
              [st] {
                perf::telemetry_options to;
                to.jsonl_out = "/dev/null";
                to.install_signal_handler = false;  // keep the bench signal-neutral
                st->session.emplace(std::move(to));
              },
              [st] {
                st->session->stop();
                st->windows += st->session->windows_exported();
                st->session.reset();
              }}};
  p.budget_pct = 2.0;  // the budget docs/TELEMETRY.md promises
  p.after = [st](extras& ex) {
    ex.emplace_back("windows", std::to_string(st->windows));
  };
  return p;
}

plane pmu_plane() {
  perf::pmu_plane& pmu = perf::pmu_plane::instance();
  const auto configure = [&pmu](const char* spec) {
    return [&pmu, spec] {
      pmu.reset_for_test();
      pmu.configure(spec);
    };
  };
  auto hw_mode = std::make_shared<std::string>();
  plane p;
  p.sides = {{"off", 1.0, configure("off")},
             // Two counter samples per phase are real, intended work.
             {"sw", 10.0, configure("software")},
             {"hw", no_gate, configure("1"),
              [&pmu, hw_mode] { *hw_mode = perf::pmu_mode_name(pmu.mode()); }}};
  p.after = [&pmu, hw_mode](extras& ex) {
    pmu.reset_for_test();
    ex.emplace_back("hw_mode", "\"" + *hw_mode + "\"");
  };
  return p;
}

}  // namespace

int main(int argc, char** argv) {
  const cli_args args(argc, argv);
  const std::string name = args.get("plane", "");
  plane p;
  if (name == "trace") {
    p = trace_plane();
  } else if (name == "telemetry") {
    p = telemetry_plane();
  } else if (name == "pmu") {
    p = pmu_plane();
  } else {
    std::cerr << "micro_plane_overhead: --plane=trace|telemetry|pmu required\n";
    return 2;
  }
  const auto tasks = static_cast<std::uint64_t>(args.get_int("tasks", 40'000));
  const auto spin = static_cast<std::uint64_t>(args.get_int("spin", 2'000));
  const int workers = static_cast<int>(args.get_int("workers", 4));
  const int reps = std::max(1, static_cast<int>(args.get_int("reps", 7)));

  // Read the baseline first: a gate without a usable reference fails fast.
  const std::string baseline = args.get("baseline", "");
  std::optional<json_value> base;
  if (!baseline.empty()) {
    base = bench::read_baseline(baseline);
    if (!base) return 2;
    if (!(base->number_at("off_tasks_per_s", 0) > 0)) {
      std::cerr << "baseline " << baseline << " has no off_tasks_per_s\n";
      return 2;
    }
  }

  const std::size_t n = p.sides.size();
  extras ex;
  p.before(ex);
  std::vector<sample_stats> tps(n), overhead(n);
  for (int r = 0; r < reps; ++r) {
    for (std::size_t i = 0; i < n; ++i) {
      p.sides[i].enter();
      tps[i].add(run_throughput(workers, tasks, spin));
      p.sides[i].leave();
    }
    for (std::size_t i = 1; i < n; ++i)
      overhead[i].add((tps[0].samples().back() / tps[i].samples().back() - 1.0) * 100.0);
  }
  p.after(ex);

  const auto iqr = [](const sample_stats& s) {
    return s.percentile(75.0) - s.percentile(25.0);
  };

  std::cout << "Plane overhead (" << name << "): " << workers << " workers, "
            << tasks << " tasks x " << spin << " spin iters, " << reps
            << " rounds\n";
  table_writer table({"side", "best k/s", "median k/s", "IQR k/s",
                      "overhead % (median round)"});
  for (std::size_t i = 0; i < n; ++i)
    table.add_row({p.sides[i].name, format_number(tps[i].max() / 1e3, 1),
                   format_number(tps[i].median() / 1e3, 1),
                   format_number(iqr(tps[i]) / 1e3, 1),
                   i == 0 ? "-" : format_number(overhead[i].median(), 2)});
  table.print(std::cout);
  for (const auto& [key, value] : ex) std::cout << key << ": " << value << "\n";

  const std::string json = args.get("json", "");
  if (!json.empty()) {
    std::ofstream f(json);
    f << "{\n  \"bench\": \"micro_plane_overhead\",\n  \"plane\": \"" << name
      << "\",\n  \"tasks\": " << tasks << ",\n  \"spin\": " << spin
      << ",\n  \"workers\": " << workers << ",\n  \"reps\": " << reps;
    const auto field = [&f](const std::string& key, const std::string& value) {
      f << ",\n  \"" << key << "\": " << value;
    };
    for (std::size_t i = 0; i < n; ++i) {
      const std::string& s = p.sides[i].name;
      field(s + "_tasks_per_s", literal(tps[i].max()));
      field(s + "_median_tasks_per_s", literal(tps[i].median()));
      field(s + "_iqr_tasks_per_s", literal(iqr(tps[i])));
      if (i == 0) continue;
      field(s + "_overhead_pct", literal(overhead[i].median()));
      field(s + "_overhead_iqr_pct", literal(iqr(overhead[i])));
    }
    for (const auto& [key, value] : ex) field(key, value);
    f << "\n}\n";
    std::cout << "(json written to " << json << ")\n";
  }

  int rc = 0;
  if (!std::isnan(p.budget_pct)) {
    const double o = overhead[1].median();
    if (o > p.budget_pct) {
      std::cerr << "FAIL: " << name << " overhead " << format_number(o, 2)
                << " % > " << format_number(p.budget_pct, 1) << " % budget\n";
      rc = 1;
    } else {
      std::cout << "OK: " << name << " overhead within "
                << format_number(p.budget_pct, 1) << " % budget\n";
    }
  }
  if (base) {
    for (std::size_t i = 0; i < n; ++i) {
      const side& s = p.sides[i];
      const double base_tps = base->number_at(s.name + "_tasks_per_s", 0);
      if (std::isnan(s.tolerance_pct) || !(base_tps > 0)) continue;
      const double delta_pct = (1.0 - tps[i].max() / base_tps) * 100.0;
      std::cout << name << "-" << s.name << " vs baseline: "
                << format_number(delta_pct, 2) << " % slower (tolerance "
                << format_number(s.tolerance_pct, 1) << " %)\n";
      if (delta_pct > s.tolerance_pct) {
        std::cerr << "FAIL: " << name << "-" << s.name
                  << " throughput regressed " << format_number(delta_pct, 2)
                  << " % > " << format_number(s.tolerance_pct, 1) << " %\n";
        rc = 1;
      } else {
        std::cout << "OK: " << name << "-" << s.name
                  << " regression within tolerance\n";
      }
    }
  }
  return rc;
}
