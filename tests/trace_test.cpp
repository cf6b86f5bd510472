// Tests for the observability stack: trace rings + Chrome JSON export
// (src/perf/trace.*), log2 histograms (src/perf/histogram.*), and the
// counter time series the telemetry session records per window
// (perf::series_sink).
#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "perf/counters.hpp"
#include "perf/exporter.hpp"
#include "perf/histogram.hpp"
#include "perf/observability.hpp"
#include "perf/telemetry.hpp"
#include "perf/trace.hpp"
#include "threads/thread_manager.hpp"

namespace gran {
namespace {

scheduler_config test_config(int workers) {
  scheduler_config cfg;
  cfg.num_workers = workers;
  cfg.pin_workers = false;
  return cfg;
}

// The tracer is process-global state: every test leaves it disabled & empty.
class TraceTest : public ::testing::Test {
 protected:
  void SetUp() override { reset(); }
  void TearDown() override { reset(); }
  static void reset() {
    auto& t = perf::tracer::instance();
    t.disable();
    t.set_export_path("");
    t.clear();
  }
};

// --- trace_ring --------------------------------------------------------------

TEST_F(TraceTest, RingCapacityRoundsUpToPowerOfTwo) {
  EXPECT_EQ(perf::trace_ring(5).capacity(), 8u);
  EXPECT_EQ(perf::trace_ring(8).capacity(), 8u);
  EXPECT_EQ(perf::trace_ring(1).capacity(), 2u);
}

TEST_F(TraceTest, RingKeepsEventsInOrder) {
  perf::trace_ring ring(16);
  for (std::uint64_t i = 0; i < 10; ++i) {
    perf::trace_event e;
    e.ticks = i;
    e.arg = i;
    ring.emit(e);
  }
  EXPECT_EQ(ring.written(), 10u);
  EXPECT_EQ(ring.dropped(), 0u);
  const auto events = ring.snapshot();
  ASSERT_EQ(events.size(), 10u);
  for (std::uint64_t i = 0; i < 10; ++i) EXPECT_EQ(events[i].arg, i);
}

TEST_F(TraceTest, RingWrapKeepsLatestAndCountsDropped) {
  perf::trace_ring ring(8);
  for (std::uint64_t i = 0; i < 20; ++i) {
    perf::trace_event e;
    e.arg = i;
    ring.emit(e);
  }
  EXPECT_EQ(ring.written(), 20u);
  EXPECT_EQ(ring.dropped(), 12u);
  const auto events = ring.snapshot();
  ASSERT_EQ(events.size(), 8u);
  for (std::size_t i = 0; i < 8; ++i) EXPECT_EQ(events[i].arg, 12 + i);

  ring.clear();
  EXPECT_EQ(ring.written(), 0u);
  EXPECT_TRUE(ring.snapshot().empty());
}

TEST_F(TraceTest, RingCountersReadableWhileProducing) {
  // One producer, one observer polling the atomic counters — the only
  // concurrent access the ring supports. Exercised under TSan by
  // scripts/tsan_check.sh.
  perf::trace_ring ring(64);
  constexpr std::uint64_t n = 100'000;
  std::thread producer([&ring] {
    for (std::uint64_t i = 0; i < n; ++i) {
      perf::trace_event e;
      e.arg = i;
      ring.emit(e);
    }
  });
  std::uint64_t last = 0;
  while (last < n) {
    const std::uint64_t d = ring.dropped();
    const std::uint64_t w = ring.written();  // read after: w >= d holds
    EXPECT_GE(w, last);                      // monotone
    EXPECT_GE(w, d);
    last = w;
  }
  producer.join();
  EXPECT_EQ(ring.written(), n);
  EXPECT_EQ(ring.dropped(), n - ring.capacity());
  EXPECT_EQ(ring.snapshot().size(), ring.capacity());
}

TEST_F(TraceTest, EmitHelperGatesOnEnabledAndRing) {
  perf::trace_ring ring(16);
  perf::trace_emit(&ring, perf::trace_kind::task_begin, 0, 1);
  EXPECT_EQ(ring.written(), 0u) << "disabled tracer must not emit";
  perf::trace_emit(nullptr, perf::trace_kind::task_begin, 0, 1);  // no crash

  perf::tracer::instance().enable();
  perf::trace_emit(&ring, perf::trace_kind::task_begin, 3, 42, 7, "t");
  ASSERT_EQ(ring.written(), 1u);
  const auto events = ring.snapshot();
  EXPECT_EQ(events[0].kind, perf::trace_kind::task_begin);
  EXPECT_EQ(events[0].worker, 3);
  EXPECT_EQ(events[0].arg, 42u);
  EXPECT_EQ(events[0].arg2, 7u);
  EXPECT_GT(events[0].ticks, 0u);
}

// --- log2_histogram ----------------------------------------------------------

TEST(Histogram, BucketOfEdges) {
  using perf::log2_histogram;
  EXPECT_EQ(log2_histogram::bucket_of(0), 0);
  EXPECT_EQ(log2_histogram::bucket_of(1), 0);
  EXPECT_EQ(log2_histogram::bucket_of(2), 1);
  EXPECT_EQ(log2_histogram::bucket_of(3), 1);
  EXPECT_EQ(log2_histogram::bucket_of(4), 2);
  EXPECT_EQ(log2_histogram::bucket_of((1ull << 20) - 1), 19);
  EXPECT_EQ(log2_histogram::bucket_of(1ull << 20), 20);
  EXPECT_EQ(log2_histogram::bucket_of(~0ull), 63);
}

TEST(Histogram, CountSumMean) {
  perf::log2_histogram h;
  h.record(100);
  h.record(200);
  h.record(300);
  EXPECT_EQ(h.count(), 3u);
  const auto s = h.snap();
  EXPECT_EQ(s.count, 3u);
  EXPECT_EQ(s.sum, 600u);
  EXPECT_DOUBLE_EQ(s.mean(), 200.0);
}

TEST(Histogram, PercentilesAreMonotoneAndBracketed) {
  perf::log2_histogram h;
  for (int i = 0; i < 90; ++i) h.record(1000);    // bucket [512, 1024) is 9
  for (int i = 0; i < 10; ++i) h.record(100'000); // bucket [65536, 131072)
  const auto s = h.snap();
  const double p50 = s.percentile(50);
  const double p95 = s.percentile(95);
  const double p99 = s.percentile(99);
  EXPECT_LE(p50, p95);
  EXPECT_LE(p95, p99);
  // p50 lands in the bucket holding the 1000-ns samples...
  EXPECT_GE(p50, 512.0);
  EXPECT_LT(p50, 2048.0);
  // ...and p99 in the bucket holding the 100-us tail.
  EXPECT_GE(p99, 65536.0);
  EXPECT_LT(p99, 131072.0);
  EXPECT_EQ(perf::histogram_snapshot{}.percentile(50), 0.0);
}

TEST(Histogram, MergeAndReset) {
  perf::log2_histogram a, b;
  a.record(10);
  b.record(1000);
  b.record(2000);
  auto s = a.snap();
  s += b.snap();
  EXPECT_EQ(s.count, 3u);
  EXPECT_EQ(s.sum, 3010u);
  a.reset();
  EXPECT_EQ(a.count(), 0u);
  EXPECT_EQ(a.snap().sum, 0u);
}

// --- end-to-end: manager with tracing on -------------------------------------

TEST_F(TraceTest, ManagerExportContainsLanesAndTaskSlices) {
  perf::tracer::instance().enable(1 << 18);
  constexpr int n = 200;
  std::uint64_t exec_ns = 0;
  {
    thread_manager tm(test_config(2));
    tm.reset_counters();
    for (int i = 0; i < n; ++i)
      tm.spawn(
          [] {
            volatile double x = 1.0;
            for (int k = 0; k < 4000; ++k) x = x * 1.0000001 + 0.1;
          },
          task_priority::normal, "traced-task");
    tm.wait_idle();
    exec_ns = tm.counter_totals().exec_ns;
  }

  std::ostringstream os;
  perf::tracer::instance().write_chrome_json(os);
  const std::string json = os.str();

  EXPECT_NE(json.find("\"traceEvents\""), std::string::npos);
  EXPECT_NE(json.find("\"name\":\"worker 0\""), std::string::npos);
  EXPECT_NE(json.find("\"name\":\"worker 1\""), std::string::npos);
  EXPECT_NE(json.find("traced-task"), std::string::npos);

  // Count the task slices and sum their durations (one slice per line; dur
  // is exported in microseconds).
  int slices = 0;
  double dur_us = 0;
  std::istringstream lines(json);
  std::string line;
  while (std::getline(lines, line)) {
    if (line.find("\"cat\":\"task\"") == std::string::npos) continue;
    ++slices;
    const auto pos = line.find("\"dur\":");
    ASSERT_NE(pos, std::string::npos);
    dur_us += std::strtod(line.c_str() + pos + 6, nullptr);
  }
  EXPECT_EQ(slices, n) << "one complete slice per single-phase task";
  // Phase begin/end events carry the exact tsc reads the Σt_exec counter
  // accumulates (trace_emit_at), so the two sums are the same measurement;
  // the slack only covers the exporter's µs formatting and float summation.
  EXPECT_NEAR(dur_us * 1e3, static_cast<double>(exec_ns),
              0.05 * static_cast<double>(exec_ns));
}

TEST_F(TraceTest, DroppedCounterSurfacesRingWrap) {
  perf::tracer::instance().enable(16);  // tiny rings: guaranteed wrap
  {
    thread_manager tm(test_config(1));
    for (int i = 0; i < 500; ++i) tm.spawn([] {});
    tm.wait_idle();
    EXPECT_GT(perf::registry::instance().value_or("/threads/count/trace-dropped", -1),
              0.0);
  }
  EXPECT_GT(perf::tracer::instance().total_dropped(), 0u);
}

TEST_F(TraceTest, StealEventsCarryVictim) {
  perf::tracer::instance().enable(1 << 16);
  {
    scheduler_config cfg = test_config(4);
    cfg.policy = "work-stealing-lifo";
    thread_manager tm(cfg);
    for (int i = 0; i < 400; ++i)
      tm.spawn([] {
        volatile double x = 1.0;
        for (int k = 0; k < 10000; ++k) x = x * 1.0000001 + 0.1;
      });
    tm.wait_idle();
  }
  std::ostringstream os;
  perf::tracer::instance().write_chrome_json(os);
  const std::string json = os.str();
  // External spawns round-robin into per-worker inboxes; draining another
  // worker's inbox is a steal, so a 4-worker run always records some.
  EXPECT_NE(json.find("\"cat\":\"steal\""), std::string::npos);
  EXPECT_NE(json.find("\"victim\":"), std::string::npos);
  EXPECT_NE(json.find("\"ph\":\"s\""), std::string::npos);  // flow begin
  EXPECT_NE(json.find("\"ph\":\"f\""), std::string::npos);  // flow end
}

// --- counter time series ---------------------------------------------------

class SeriesTest : public TraceTest {
 protected:
  void SetUp() override {
    TraceTest::SetUp();
    perf::registry::instance().remove_prefix("/trtest");
  }
  void TearDown() override {
    perf::registry::instance().remove_prefix("/trtest");
    TraceTest::TearDown();
  }

  // A series-only telemetry session over /trtest with 0.5 ms windows.
  static perf::telemetry_options series_options(const std::string& out) {
    perf::telemetry_options to;
    to.series_out = out;
    to.interval_us = 500;
    to.window.prefixes = {"/trtest"};
    return to;
  }

  static void wait_windows(const perf::telemetry_session& s, std::uint64_t n) {
    while (s.windows_exported() < n)
      std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }

  static std::string slurp(const std::string& path) {
    std::ifstream f(path);
    std::stringstream ss;
    ss << f.rdbuf();
    return ss.str();
  }
};

TEST_F(SeriesTest, RecordsRowsAndDumps) {
  auto& reg = perf::registry::instance();
  std::atomic<double> v{1.0};
  reg.add("/trtest/a", perf::counter_kind::gauge, "", [&v] { return v.load(); });
  reg.add("/trtest/b", perf::counter_kind::monotonic, "", [] { return 5.0; });

  const std::string csv_path = testing::TempDir() + "gran_series_rows.csv";
  perf::telemetry_session session(series_options(csv_path));
  // The series alone neither arms the flight recorder nor enables tracing.
  EXPECT_FALSE(perf::tracer::enabled());
  wait_windows(session, 5);
  v.store(2.0);
  wait_windows(session, 10);
  session.stop();

  const perf::series_sink& series = session.series();
  ASSERT_EQ(series.columns().size(), 2u);
  EXPECT_EQ(series.columns()[0], "/trtest/a");
  EXPECT_EQ(series.columns()[1], "/trtest/b");
  ASSERT_GE(series.rows(), 10u);
  const std::size_t last = series.rows() - 1;
  EXPECT_EQ(series.value(0, 0), 1.0);
  EXPECT_EQ(series.value(last, 0), 2.0);
  EXPECT_EQ(series.value(last, 1), 5.0);

  EXPECT_TRUE(session.series_written());
  EXPECT_EQ(slurp(csv_path).rfind("time_ns,/trtest/a,/trtest/b\n0,1,5\n", 0), 0u);
  const std::string json_path = testing::TempDir() + "gran_series_rows.json";
  ASSERT_TRUE(series.write_file(json_path));
  const std::string json = slurp(json_path);
  EXPECT_NE(json.find("\"/trtest/a\""), std::string::npos);
  EXPECT_NE(json.find("\"rows\""), std::string::npos);
  std::remove(csv_path.c_str());
  std::remove(json_path.c_str());
}

TEST_F(SeriesTest, VanishedCounterReadsNaN) {
  auto& reg = perf::registry::instance();
  reg.add("/trtest/gone", perf::counter_kind::gauge, "", [] { return 1.0; });
  const std::string csv_path = testing::TempDir() + "gran_series_gone.csv";
  perf::telemetry_session session(series_options(csv_path));
  wait_windows(session, 3);
  reg.remove("/trtest/gone");
  wait_windows(session, session.windows_exported() + 3);
  session.stop();

  const perf::series_sink& series = session.series();
  ASSERT_GE(series.rows(), 6u);
  ASSERT_EQ(series.columns().size(), 1u);
  EXPECT_EQ(series.value(0, 0), 1.0);
  EXPECT_TRUE(std::isnan(series.value(series.rows() - 1, 0)));
  EXPECT_NE(slurp(csv_path).find(",nan\n"), std::string::npos);
  std::ostringstream json;
  series.write(json, true);
  EXPECT_NE(json.str().find(", null]"), std::string::npos);
  std::remove(csv_path.c_str());
}

TEST_F(SeriesTest, RowCapKeepsNewestRows) {
  perf::series_sink series;
  constexpr std::size_t cap = perf::series_sink::max_rows;
  for (std::size_t i = 0; i < cap + 3; ++i) {
    perf::window_snapshot w;
    w.t_end_ns = static_cast<std::int64_t>(i) * 1000;
    w.metrics.push_back({"/trtest/x", perf::counter_kind::gauge,
                         static_cast<double>(i)});
    series.add(w);
  }
  ASSERT_EQ(series.rows(), cap);
  EXPECT_EQ(series.value(0, 0), 3.0);  // the three oldest rows were dropped
  EXPECT_EQ(series.value(cap - 1, 0), static_cast<double>(cap + 2));
  std::ostringstream csv;
  series.write(csv, false);
  // time_ns restarts at the first kept row.
  EXPECT_EQ(csv.str().rfind("time_ns,/trtest/x\n0,3\n", 0), 0u);
}

// --- observability_session options -------------------------------------------

TEST(Observability, OptionsFromEnvAndCli) {
  ::setenv("GRAN_TRACE", "env.json", 1);
  ::setenv("GRAN_SAMPLE_OUT", "env.csv", 1);
  const auto env = perf::observability_session::options_from_env();
  EXPECT_EQ(env.trace_out, "env.json");
  EXPECT_EQ(env.sample_out, "env.csv");
  ::unsetenv("GRAN_TRACE");
  ::unsetenv("GRAN_SAMPLE_OUT");

  const char* argv[] = {"prog", "--trace-out=cli.json", "--sample-out=s.json"};
  const cli_args args(3, argv);
  const auto opt = perf::observability_session::options_from_cli(args, env);
  EXPECT_EQ(opt.trace_out, "cli.json");  // CLI beats env
  EXPECT_EQ(opt.sample_out, "s.json");
}

}  // namespace
}  // namespace gran
