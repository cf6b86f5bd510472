#include "perf/exporter.hpp"

#include <fcntl.h>
#include <netdb.h>
#include <sys/socket.h>
#include <sys/types.h>
#include <unistd.h>

#include <cerrno>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <istream>
#include <limits>
#include <map>
#include <ostream>
#include <sstream>
#include <string>
#include <vector>

namespace gran::perf {

namespace {

// JSON forbids NaN/Inf and Prometheus scrapers reject them in gauges we
// derive; everything funnels through here.
double finite(double v) { return std::isfinite(v) ? v : 0.0; }

void write_number(std::ostream& os, double v) {
  v = finite(v);
  // Integers print without a fraction to keep the stream compact and the
  // counter values exact.
  if (v == static_cast<std::int64_t>(v) && std::fabs(v) < 9.2e18) {
    os << static_cast<std::int64_t>(v);
  } else {
    char buf[32];
    std::snprintf(buf, sizeof(buf), "%.6g", v);
    os << buf;
  }
}

void sanitize_into(std::string& out, const std::string& part) {
  for (const char c : part) {
    const bool ok = (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') ||
                    (c >= '0' && c <= '9') || c == '_';
    out.push_back(ok ? c : '_');
  }
}

const char* type_of(counter_kind kind) {
  return kind == counter_kind::monotonic ? "counter" : "gauge";
}

struct prom_sample {
  std::string instance;  // empty = no label
  counter_kind kind;
  double value;
  std::string help;  // original counter path
};

void write_family(std::ostream& os, const std::string& family,
                  const std::vector<prom_sample>& samples) {
  os << "# HELP " << family << " gran counter " << samples.front().help << "\n";
  os << "# TYPE " << family << " " << type_of(samples.front().kind) << "\n";
  for (const prom_sample& s : samples) {
    os << family;
    if (!s.instance.empty()) os << "{instance=\"" << s.instance << "\"}";
    os << " ";
    write_number(os, s.value);
    os << "\n";
  }
}

void write_window_gauge(std::ostream& os, const char* name, const char* help,
                        double value) {
  os << "# HELP gran_window_" << name << " " << help << "\n";
  os << "# TYPE gran_window_" << name << " gauge\n";
  os << "gran_window_" << name << " ";
  write_number(os, value);
  os << "\n";
}

// Like write_window_gauge but with the full family name: the PMU and
// service interval gauges live under their own gran_pmu_/gran_service_
// prefixes, distinct from the auto-derived counter families (e.g.
// /threads/pmu/mode maps to gran_threads_pmu_mode).
void write_named_gauge(std::ostream& os, const char* family, const char* help,
                       double value) {
  os << "# HELP " << family << " " << help << "\n";
  os << "# TYPE " << family << " gauge\n";
  os << family << " ";
  write_number(os, value);
  os << "\n";
}

bool valid_metric_name(const std::string& s) {
  if (s.empty()) return false;
  for (std::size_t i = 0; i < s.size(); ++i) {
    const char c = s[i];
    const bool alpha = (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') ||
                       c == '_' || c == ':';
    const bool digit = c >= '0' && c <= '9';
    if (!(alpha || (digit && i > 0))) return false;
  }
  return true;
}

bool valid_label_name(const std::string& s) {
  if (s.empty()) return false;
  for (std::size_t i = 0; i < s.size(); ++i) {
    const char c = s[i];
    const bool alpha = (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') || c == '_';
    const bool digit = c >= '0' && c <= '9';
    if (!(alpha || (digit && i > 0))) return false;
  }
  return true;
}

bool valid_sample_value(const std::string& s) {
  if (s.empty()) return false;
  if (s == "+Inf" || s == "-Inf" || s == "NaN") return true;  // prom allows them
  char* end = nullptr;
  errno = 0;
  std::strtod(s.c_str(), &end);
  return errno == 0 && end == s.c_str() + s.size();
}

bool fail(std::string* error, int line_no, const std::string& why) {
  if (error != nullptr) *error = "line " + std::to_string(line_no) + ": " + why;
  return false;
}

// Parses `{label="value",...}` starting at s[pos] == '{'; advances pos past
// the closing brace. Returns false on malformed syntax.
bool parse_labels(const std::string& s, std::size_t& pos) {
  ++pos;  // '{'
  while (pos < s.size() && s[pos] != '}') {
    std::size_t eq = s.find('=', pos);
    if (eq == std::string::npos) return false;
    if (!valid_label_name(s.substr(pos, eq - pos))) return false;
    pos = eq + 1;
    if (pos >= s.size() || s[pos] != '"') return false;
    ++pos;
    while (pos < s.size() && s[pos] != '"') {
      if (s[pos] == '\\') ++pos;  // escaped char
      ++pos;
    }
    if (pos >= s.size()) return false;
    ++pos;  // closing quote
    if (pos < s.size() && s[pos] == ',') ++pos;
  }
  if (pos >= s.size()) return false;
  ++pos;  // '}'
  return true;
}

}  // namespace

prometheus_family prometheus_family_of(const std::string& counter_path_text) {
  prometheus_family out;
  out.name = "gran_";
  const auto parsed = counter_path::parse(counter_path_text);
  if (!parsed) {
    sanitize_into(out.name, counter_path_text);
    return out;
  }
  sanitize_into(out.name, parsed->object);
  out.name.push_back('_');
  sanitize_into(out.name, parsed->name);
  out.instance = parsed->instance;
  return out;
}

void write_prometheus_text(std::ostream& os, const window_snapshot& w) {
  // Group samples by family so HELP/TYPE appear once, ahead of the family's
  // samples, with aggregate and per-instance values together.
  std::map<std::string, std::vector<prom_sample>> families;
  for (const window_metric& m : w.metrics) {
    prometheus_family fam = prometheus_family_of(m.path);
    families[fam.name].push_back(
        prom_sample{std::move(fam.instance), m.kind, finite(m.value), m.path});
  }
  for (const auto& [family, samples] : families) write_family(os, family, samples);

  write_window_gauge(os, "seq", "window sequence number", static_cast<double>(w.seq));
  write_window_gauge(os, "dt_seconds", "window length", w.dt_s);
  write_window_gauge(os, "idle_rate", "interval idle-rate (Eq. 1)", w.idle_rate);
  write_window_gauge(os, "tasks_per_second", "tasks completed per second",
                     w.tasks_per_s);
  write_window_gauge(os, "task_duration_p50_ns", "interval task duration p50",
                     w.task_duration_p50_ns);
  write_window_gauge(os, "task_duration_p95_ns", "interval task duration p95",
                     w.task_duration_p95_ns);
  write_window_gauge(os, "task_duration_p99_ns", "interval task duration p99",
                     w.task_duration_p99_ns);
  write_window_gauge(os, "task_overhead_p50_ns", "interval task overhead p50",
                     w.task_overhead_p50_ns);
  write_window_gauge(os, "task_overhead_p95_ns", "interval task overhead p95",
                     w.task_overhead_p95_ns);
  write_window_gauge(os, "task_overhead_p99_ns", "interval task overhead p99",
                     w.task_overhead_p99_ns);
  // Service-ingress gauges only exist while a task_service is registered —
  // absent families are how scrapers tell batch runs from service runs.
  if (w.has_service) {
    write_window_gauge(os, "sojourn_p50_ns", "interval request sojourn p50",
                       w.sojourn_p50_ns);
    write_window_gauge(os, "sojourn_p95_ns", "interval request sojourn p95",
                       w.sojourn_p95_ns);
    write_window_gauge(os, "sojourn_p99_ns", "interval request sojourn p99",
                       w.sojourn_p99_ns);
    write_window_gauge(os, "rejection_rate",
                       "rejected/submitted over the window", w.rejection_rate);
    write_window_gauge(os, "service_backlog",
                       "requests accepted and not yet completed",
                       w.service_backlog);
    write_named_gauge(os, "gran_service_queue_wait_p50_ns",
                      "interval queue-wait p50", w.queue_wait_p50_ns);
    write_named_gauge(os, "gran_service_queue_wait_p95_ns",
                      "interval queue-wait p95", w.queue_wait_p95_ns);
    write_named_gauge(os, "gran_service_queue_wait_p99_ns",
                      "interval queue-wait p99", w.queue_wait_p99_ns);
  }
  // PMU families only exist while the plane is enabled (GRAN_PMU); their
  // absence is how scrapers tell a PMU-off run. Older validators must
  // tolerate these as unknown gran_* families (validate_gran_families).
  if (w.has_pmu) {
    write_named_gauge(os, "gran_pmu_mode",
                      "PMU rung: 1 full, 2 reduced, 3 minimal, 4 software",
                      static_cast<double>(w.pmu_mode));
    write_named_gauge(os, "gran_pmu_ipc_p50", "interval per-phase IPC p50",
                      w.ipc_p50);
    write_named_gauge(os, "gran_pmu_ipc_p95", "interval per-phase IPC p95",
                      w.ipc_p95);
    write_named_gauge(os, "gran_pmu_ipc_p99", "interval per-phase IPC p99",
                      w.ipc_p99);
    write_named_gauge(os, "gran_pmu_instructions_p50",
                      "interval instructions/phase p50", w.instructions_p50);
    write_named_gauge(os, "gran_pmu_instructions_p95",
                      "interval instructions/phase p95", w.instructions_p95);
    write_named_gauge(os, "gran_pmu_instructions_p99",
                      "interval instructions/phase p99", w.instructions_p99);
    write_named_gauge(os, "gran_pmu_llc_miss_p50",
                      "interval LLC misses/phase p50", w.llc_p50);
    write_named_gauge(os, "gran_pmu_llc_miss_p95",
                      "interval LLC misses/phase p95", w.llc_p95);
    write_named_gauge(os, "gran_pmu_llc_miss_p99",
                      "interval LLC misses/phase p99", w.llc_p99);
  }
}

bool validate_prometheus_text(std::istream& is, std::string* error) {
  std::string line;
  int line_no = 0;
  std::map<std::string, bool> typed;         // family -> TYPE seen
  std::map<std::string, bool> has_samples;   // family -> sample seen
  while (std::getline(is, line)) {
    ++line_no;
    if (line.empty()) continue;
    if (line[0] == '#') {
      std::istringstream ls(line);
      std::string hash, keyword, family;
      ls >> hash >> keyword;
      if (keyword != "HELP" && keyword != "TYPE") continue;  // plain comment
      if (!(ls >> family) || !valid_metric_name(family))
        return fail(error, line_no, "bad metric name in " + keyword);
      if (keyword == "TYPE") {
        std::string type;
        if (!(ls >> type) ||
            (type != "counter" && type != "gauge" && type != "histogram" &&
             type != "summary" && type != "untyped"))
          return fail(error, line_no, "bad TYPE value");
        if (typed[family]) return fail(error, line_no, "duplicate TYPE for " + family);
        if (has_samples[family])
          return fail(error, line_no, "TYPE after samples for " + family);
        typed[family] = true;
      }
      continue;
    }
    // Sample: name[{labels}] value [timestamp]
    std::size_t pos = 0;
    while (pos < line.size() && line[pos] != '{' && line[pos] != ' ') ++pos;
    const std::string name = line.substr(0, pos);
    if (!valid_metric_name(name)) return fail(error, line_no, "bad metric name");
    if (pos < line.size() && line[pos] == '{') {
      if (!parse_labels(line, pos)) return fail(error, line_no, "bad label syntax");
    }
    if (pos >= line.size() || line[pos] != ' ')
      return fail(error, line_no, "missing value");
    std::istringstream rest(line.substr(pos + 1));
    std::string value, timestamp, extra;
    rest >> value;
    if (!valid_sample_value(value)) return fail(error, line_no, "bad sample value");
    if (rest >> timestamp) {
      char* end = nullptr;
      errno = 0;
      std::strtoll(timestamp.c_str(), &end, 10);
      if (errno != 0 || end != timestamp.c_str() + timestamp.size())
        return fail(error, line_no, "bad timestamp");
      if (rest >> extra) return fail(error, line_no, "trailing garbage");
    }
    // Histogram/summary families emit _bucket/_sum/_count samples under the
    // family's TYPE; we only emit counter/gauge, so sample name == family.
    has_samples[name] = true;
  }
  return true;
}

bool validate_gran_families(std::istream& is, std::string* error) {
  // Families this exporter is known to emit, with the TYPE each must carry.
  // Deliberately a small anchor set, not a census: a family missing from
  // this table is accepted as long as it starts with gran_, so new writers
  // (and future planes) stay compatible with old validators.
  static const std::map<std::string, std::string> known = {
      {"gran_window_seq", "gauge"},
      {"gran_window_idle_rate", "gauge"},
      {"gran_window_tasks_per_second", "gauge"},
      {"gran_threads_count_cumulative", "counter"},
      {"gran_threads_time_cumulative", "counter"},
      {"gran_threads_pmu_mode", "gauge"},
      {"gran_pmu_mode", "gauge"},
      {"gran_pmu_ipc_p50", "gauge"},
      {"gran_service_queue_wait_p50_ns", "gauge"},
      {"gran_service_count_submitted", "counter"},
  };
  std::string line;
  int line_no = 0;
  while (std::getline(is, line)) {
    ++line_no;
    if (line.empty()) continue;
    std::string family;
    std::string type;
    if (line[0] == '#') {
      std::istringstream ls(line);
      std::string hash, keyword;
      ls >> hash >> keyword;
      if (keyword != "TYPE") continue;
      ls >> family >> type;
    } else {
      std::size_t pos = 0;
      while (pos < line.size() && line[pos] != '{' && line[pos] != ' ') ++pos;
      family = line.substr(0, pos);
    }
    if (family.rfind("gran_", 0) != 0)
      return fail(error, line_no,
                  "family '" + family + "' lacks the gran_ prefix");
    if (!type.empty()) {
      const auto it = known.find(family);
      if (it != known.end() && it->second != type)
        return fail(error, line_no, "family '" + family + "' declared " +
                                        type + ", expected " + it->second);
    }
  }
  return true;
}

void write_json_string(std::ostream& os, const std::string& s) {
  os << '"';
  for (const char c : s) {
    switch (c) {
      case '"': os << "\\\""; break;
      case '\\': os << "\\\\"; break;
      case '\n': os << "\\n"; break;
      case '\r': os << "\\r"; break;
      case '\t': os << "\\t"; break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          char buf[8];
          std::snprintf(buf, sizeof(buf), "\\u%04x", c);
          os << buf;
        } else {
          os << c;
        }
    }
  }
  os << '"';
}

namespace {

void write_percentiles(std::ostream& os, const char* key, double p50, double p95,
                       double p99, double mean, std::uint64_t count) {
  os << '"' << key << "\":{\"p50_ns\":";
  write_number(os, p50);
  os << ",\"p95_ns\":";
  write_number(os, p95);
  os << ",\"p99_ns\":";
  write_number(os, p99);
  os << ",\"mean_ns\":";
  write_number(os, mean);
  os << ",\"count\":" << count << "}";
}

}  // namespace

void write_window_jsonl(std::ostream& os, const window_snapshot& w) {
  os << "{\"type\":\"window\",\"seq\":" << w.seq
     << ",\"t_start_ns\":" << w.t_start_ns << ",\"t_end_ns\":" << w.t_end_ns
     << ",\"dt_s\":";
  write_number(os, w.dt_s);

  std::uint64_t duration_count = 0, overhead_count = 0;
  if (const window_histogram* h = w.find_histogram("/threads/histogram/task-duration"))
    duration_count = h->delta.count;
  if (const window_histogram* h = w.find_histogram("/threads/histogram/task-overhead"))
    overhead_count = h->delta.count;

  os << ",\"interval\":{\"idle_rate\":";
  write_number(os, w.idle_rate);
  os << ",\"tasks\":" << w.tasks_delta << ",\"tasks_per_s\":";
  write_number(os, w.tasks_per_s);
  os << ",";
  write_percentiles(os, "task_duration", w.task_duration_p50_ns,
                    w.task_duration_p95_ns, w.task_duration_p99_ns,
                    w.task_duration_mean_ns, duration_count);
  os << ",";
  write_percentiles(os, "task_overhead", w.task_overhead_p50_ns,
                    w.task_overhead_p95_ns, w.task_overhead_p99_ns,
                    w.task_overhead_mean_ns, overhead_count);
  if (w.has_service) {
    // Optional section: present only while a task_service is registered.
    // Consumers (gran_top) treat its absence as "batch run", not an error.
    os << ",\"service\":{\"accepted_per_s\":";
    write_number(os, w.accepted_per_s);
    os << ",\"rejected_per_s\":";
    write_number(os, w.rejected_per_s);
    os << ",\"completed_per_s\":";
    write_number(os, w.completed_per_s);
    os << ",\"rejection_rate\":";
    write_number(os, w.rejection_rate);
    os << ",\"backlog\":";
    write_number(os, w.service_backlog);
    os << ",";
    write_percentiles(os, "sojourn", w.sojourn_p50_ns, w.sojourn_p95_ns,
                      w.sojourn_p99_ns, w.sojourn_mean_ns, w.sojourn_count);
    os << ",";
    write_percentiles(os, "queue_wait", w.queue_wait_p50_ns,
                      w.queue_wait_p95_ns, w.queue_wait_p99_ns,
                      w.queue_wait_mean_ns, w.queue_wait_count);
    os << "}";
  }
  if (w.has_pmu) {
    // Optional section: present only while the PMU plane is enabled. IPC
    // values are dimensionless ratios, so the generic *_ns percentile keys
    // don't fit — flat keys instead.
    os << ",\"pmu\":{\"mode\":" << w.pmu_mode << ",\"ipc\":{\"p50\":";
    write_number(os, w.ipc_p50);
    os << ",\"p95\":";
    write_number(os, w.ipc_p95);
    os << ",\"p99\":";
    write_number(os, w.ipc_p99);
    os << ",\"mean\":";
    write_number(os, w.ipc_mean);
    os << ",\"count\":" << w.ipc_samples << "},\"instructions\":{\"p50\":";
    write_number(os, w.instructions_p50);
    os << ",\"p95\":";
    write_number(os, w.instructions_p95);
    os << ",\"p99\":";
    write_number(os, w.instructions_p99);
    os << ",\"mean\":";
    write_number(os, w.instructions_mean);
    os << ",\"count\":" << w.instructions_samples
       << "},\"llc_miss\":{\"p50\":";
    write_number(os, w.llc_p50);
    os << ",\"p95\":";
    write_number(os, w.llc_p95);
    os << ",\"p99\":";
    write_number(os, w.llc_p99);
    os << ",\"mean\":";
    write_number(os, w.llc_mean);
    os << ",\"count\":" << w.llc_samples << "}}";
  }
  os << "}";

  os << ",\"counters\":{";
  bool first = true;
  for (const window_metric& m : w.metrics) {
    if (!first) os << ",";
    first = false;
    write_json_string(os, m.path);
    os << ":";
    write_number(os, m.value);
  }
  os << "},\"rates\":{";
  first = true;
  for (const window_metric& m : w.metrics) {
    if (m.kind != counter_kind::monotonic) continue;
    if (!first) os << ",";
    first = false;
    write_json_string(os, m.path);
    os << ":";
    write_number(os, m.rate_per_s);
  }
  os << "},\"workers\":[";
  first = true;
  for (const worker_window& row : w.workers) {
    if (!first) os << ",";
    first = false;
    os << "{\"worker\":" << row.worker << ",\"tasks_per_s\":";
    write_number(os, row.tasks_per_s);
    os << ",\"idle_rate\":";
    write_number(os, row.idle_rate);
    os << ",\"stolen_per_s\":";
    write_number(os, row.stolen_per_s);
    os << ",\"duration_p50_ns\":";
    write_number(os, row.duration_p50_ns);
    os << ",\"duration_p95_ns\":";
    write_number(os, row.duration_p95_ns);
    os << ",\"duration_p99_ns\":";
    write_number(os, row.duration_p99_ns);
    os << ",\"duration_samples\":" << row.duration_samples;
    if (w.has_pmu) {
      os << ",\"ipc_p50\":";
      write_number(os, row.ipc_p50);
      os << ",\"ipc_samples\":" << row.ipc_samples;
    }
    if (row.heartbeat_age_ns >= 0) {
      os << ",\"heartbeat_age_ns\":";
      write_number(os, row.heartbeat_age_ns);
      os << ",\"running_task\":" << row.running_task << ",\"running_ns\":";
      write_number(os, row.running_ns);
    }
    os << "}";
  }
  os << "]}\n";
}

namespace {

int open_tcp(const std::string& spec, std::string* why) {
  // spec = "host:port"
  const std::size_t colon = spec.rfind(':');
  if (colon == std::string::npos || colon == 0 || colon + 1 >= spec.size()) {
    *why = "expected tcp://host:port";
    return -1;
  }
  const std::string host = spec.substr(0, colon);
  const std::string port = spec.substr(colon + 1);

  addrinfo hints{};
  hints.ai_family = AF_UNSPEC;
  hints.ai_socktype = SOCK_STREAM;
  addrinfo* res = nullptr;
  const int rc = ::getaddrinfo(host.c_str(), port.c_str(), &hints, &res);
  if (rc != 0) {
    *why = ::gai_strerror(rc);
    return -1;
  }
  int fd = -1;
  for (addrinfo* ai = res; ai != nullptr; ai = ai->ai_next) {
    fd = ::socket(ai->ai_family, ai->ai_socktype, ai->ai_protocol);
    if (fd < 0) continue;
    if (::connect(fd, ai->ai_addr, ai->ai_addrlen) == 0) break;
    ::close(fd);
    fd = -1;
  }
  ::freeaddrinfo(res);
  if (fd < 0) *why = std::strerror(errno);
  return fd;
}

}  // namespace

metrics_sink::~metrics_sink() { close(); }

bool metrics_sink::open(const std::string& destination) {
  close();
  destination_ = destination;
  std::string why;
  if (destination.rfind("tcp://", 0) == 0) {
    fd_ = open_tcp(destination.substr(6), &why);
    socket_ = fd_ >= 0;
  } else {
    fd_ = ::open(destination.c_str(), O_WRONLY | O_CREAT | O_APPEND, 0644);
    if (fd_ < 0) why = std::strerror(errno);
  }
  if (fd_ < 0) {
    std::fprintf(stderr, "[gran] metrics sink '%s' unavailable: %s\n",
                 destination.c_str(), why.c_str());
    return false;
  }
  return true;
}

void metrics_sink::close() {
  if (fd_ >= 0) {
    ::close(fd_);
    fd_ = -1;
  }
  socket_ = false;
}

void metrics_sink::write(const std::string& data) {
  if (fd_ < 0) return;
  std::size_t off = 0;
  while (off < data.size()) {
    // MSG_NOSIGNAL: a scraper that disconnected must produce EPIPE, not kill
    // the process with SIGPIPE.
    const ssize_t n =
        socket_ ? ::send(fd_, data.data() + off, data.size() - off, MSG_NOSIGNAL)
                : ::write(fd_, data.data() + off, data.size() - off);
    if (n < 0) {
      if (errno == EINTR) continue;
      if (!warned_) {
        std::fprintf(stderr, "[gran] metrics sink '%s' failed: %s (disabling)\n",
                     destination_.c_str(), std::strerror(errno));
        warned_ = true;
      }
      close();
      return;
    }
    off += static_cast<std::size_t>(n);
  }
  bytes_ += data.size();
}

bool write_file_atomic(const std::string& path, const std::string& content) {
  const std::string tmp = path + ".tmp";
  const int fd = ::open(tmp.c_str(), O_WRONLY | O_CREAT | O_TRUNC, 0644);
  if (fd < 0) return false;
  std::size_t off = 0;
  while (off < content.size()) {
    const ssize_t n = ::write(fd, content.data() + off, content.size() - off);
    if (n < 0) {
      if (errno == EINTR) continue;
      ::close(fd);
      ::unlink(tmp.c_str());
      return false;
    }
    off += static_cast<std::size_t>(n);
  }
  ::close(fd);
  return ::rename(tmp.c_str(), path.c_str()) == 0;
}

void series_sink::add(const window_snapshot& w) {
  constexpr double nan = std::numeric_limits<double>::quiet_NaN();
  row r;
  r.t_ns = w.t_end_ns;
  r.values.assign(columns_.size(), nan);
  for (const window_metric& m : w.metrics) {
    const auto [it, added] = column_of_.try_emplace(m.path, columns_.size());
    if (added) {
      columns_.push_back(m.path);
      r.values.push_back(nan);
    }
    r.values[it->second] = m.value;
  }
  rows_.push_back(std::move(r));
  if (rows_.size() > max_rows) rows_.pop_front();
}

double series_sink::value(std::size_t row, std::size_t column) const {
  const std::vector<double>& v = rows_[row].values;
  return column < v.size() ? v[column] : std::numeric_limits<double>::quiet_NaN();
}

void series_sink::write(std::ostream& os, bool json) const {
  if (json) {
    os << "{\n  \"columns\": [\"time_ns\"";
    for (const std::string& c : columns_) {
      os << ", ";
      write_json_string(os, c);
    }
    os << "],\n  \"rows\": [\n";
  } else {
    os << "time_ns";
    for (const std::string& c : columns_) os << ',' << c;
    os << '\n';
  }
  const std::int64_t t0 = rows_.empty() ? 0 : rows_.front().t_ns;
  for (std::size_t i = 0; i < rows_.size(); ++i) {
    os << (json ? "    [" : "") << rows_[i].t_ns - t0;
    for (std::size_t c = 0; c < columns_.size(); ++c) {
      const double v = value(i, c);
      os << (json ? ", " : ",");
      if (!std::isfinite(v))
        os << (json ? "null" : "nan");
      else
        os << v;
    }
    if (json) os << ']' << (i + 1 < rows_.size() ? "," : "");
    os << '\n';
  }
  if (json) os << "  ]\n}\n";
}

bool series_sink::write_file(const std::string& path) const {
  std::ofstream f(path);
  if (f) write(f, path.size() >= 5 && path.compare(path.size() - 5, 5, ".json") == 0);
  if (!f) std::fprintf(stderr, "[gran] series: cannot write %s\n", path.c_str());
  return static_cast<bool>(f);
}

}  // namespace gran::perf
