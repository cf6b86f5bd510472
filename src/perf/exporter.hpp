// Streaming export of window snapshots (perf/window.hpp) in three formats:
//
//  * Prometheus text exposition format — one full scrape body per window,
//    rewritten atomically to a *.prom file (node_exporter textfile-collector
//    style) or served to scrapers by whoever owns the file. Counter paths
//    map to metric families: "/threads{worker#3}/count/cumulative" becomes
//    `gran_threads_count_cumulative{instance="worker#3"}`; monotonic
//    counters export as `counter`, gauges and rates as `gauge`; the derived
//    interval signals export as `gran_window_*` gauges.
//
//  * JSONL — one self-contained JSON object per line per window (plus
//    incident lines from the watchdog), written to a file, a FIFO, or a TCP
//    socket ("tcp://host:port"). This is the stream tools/gran_top tails.
//
//  * Counter time series — one row per window, kept in memory and written
//    once as CSV or JSON (series_sink) for post-mortem plots: idle-rate over
//    time, queue depth over time, ...
//
// The Prometheus and JSONL writers keep NaN/Inf out of the output (JSON
// forbids them; scrapers choke on them): non-finite values serialize as 0.
// The series keeps NaN as its "no value" marker (CSV "nan", JSON null).
//
// validate_prometheus_text checks exposition-format conformance (used by
// the tests and by `gran_top --check-prom` in CI).
#pragma once

#include <cstdint>
#include <deque>
#include <iosfwd>
#include <string>
#include <unordered_map>
#include <vector>

#include "perf/window.hpp"

namespace gran::perf {

// "/threads{worker#3}/count/cumulative" -> {"gran_threads_count_cumulative",
// "worker#3"}. Every character outside [a-zA-Z0-9_] of the path's
// object/name parts maps to '_'.
struct prometheus_family {
  std::string name;
  std::string instance;  // empty = aggregate (no label)
};
prometheus_family prometheus_family_of(const std::string& counter_path);

// Full exposition body for one window (HELP/TYPE per family, samples
// grouped under them, window-derived gauges included).
void write_prometheus_text(std::ostream& os, const window_snapshot& w);

// Strict-enough grammar check of an exposition body: HELP/TYPE/comment and
// sample lines only, valid metric/label names, parseable values, TYPE at
// most once per family and before that family's samples. Returns false and
// sets `error` (when non-null) to "line N: why" on the first violation.
bool validate_prometheus_text(std::istream& is, std::string* error = nullptr);

// Semantic layer on top of the grammar check: every family must carry the
// gran_ prefix, and families this exporter is known to emit must declare
// the expected TYPE. Unknown gran_* families are tolerated by design —
// newer writers add families (gran_pmu_* and successors) without breaking
// older validators; only a wrong prefix or a known family with the wrong
// TYPE fails.
bool validate_gran_families(std::istream& is, std::string* error = nullptr);

// One JSON object (single line, newline-terminated): window metadata,
// interval stats, counter values, monotonic rates, per-worker rows.
void write_window_jsonl(std::ostream& os, const window_snapshot& w);

// Appends a minimally escaped JSON string literal (quotes included).
void write_json_string(std::ostream& os, const std::string& s);

// Where a JSONL stream goes: a regular file (append), a FIFO (append —
// note: opening a FIFO blocks until a reader appears), or a TCP connection
// ("tcp://host:port", connected once at open). Write failures (reader went
// away, connection reset) disable the sink with one warning instead of
// killing the telemetry thread.
class metrics_sink {
 public:
  metrics_sink() = default;
  ~metrics_sink();

  metrics_sink(const metrics_sink&) = delete;
  metrics_sink& operator=(const metrics_sink&) = delete;

  // Opens the destination; false (with a warning) when it cannot be opened.
  bool open(const std::string& destination);
  void close();

  // Writes a whole line/blob; silently drops once the sink is dead.
  void write(const std::string& data);

  bool ok() const { return fd_ >= 0; }
  const std::string& destination() const { return destination_; }
  std::uint64_t bytes_written() const { return bytes_; }

 private:
  std::string destination_;
  int fd_ = -1;
  bool socket_ = false;
  bool warned_ = false;
  std::uint64_t bytes_ = 0;
};

// Time series of the window-end value of every metric, one row per window.
// Columns only append: a counter that registers late gets a new column that
// reads NaN in earlier rows, and a counter that vanishes keeps its column and
// reads NaN from then on. Not thread-safe; the telemetry session feeds it
// from its window thread and writes it once at stop().
class series_sink {
 public:
  // Retained rows; the oldest row is dropped beyond this.
  static constexpr std::size_t max_rows = 65'536;

  void add(const window_snapshot& w);

  const std::vector<std::string>& columns() const { return columns_; }
  std::size_t rows() const { return rows_.size(); }
  // Value at (row, column), oldest row first; NaN where the counter was
  // absent.
  double value(std::size_t row, std::size_t column) const;

  // Header "time_ns,<column>..." (time relative to the first kept row), then
  // one line per row; NaN writes as "nan". With `json`, an object
  // {"columns": [...], "rows": [[...], ...]} where NaN writes as null.
  void write(std::ostream& os, bool json) const;
  // JSON for a ".json" path, CSV otherwise. False (with a warning) when the
  // file cannot be written.
  bool write_file(const std::string& path) const;

 private:
  struct row {
    std::int64_t t_ns = 0;       // window end, steady_clock
    std::vector<double> values;  // columns known when the row was added
  };

  std::vector<std::string> columns_;
  std::unordered_map<std::string, std::size_t> column_of_;
  std::deque<row> rows_;
};

// Atomically replaces `path` with `content` (write to path+".tmp", rename),
// so a concurrent scraper never sees a half-written exposition.
bool write_file_atomic(const std::string& path, const std::string& content);

}  // namespace gran::perf
