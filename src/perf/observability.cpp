#include "perf/observability.hpp"

#include <iostream>

#include "perf/pmu.hpp"
#include "perf/trace.hpp"
#include "util/env.hpp"

namespace gran::perf {

observability_session::options observability_session::options_from_env() {
  options o;
  const std::string trace = env_string("GRAN_TRACE", "");
  if (!trace.empty())
    o.trace_out = (trace == "1" || trace == "true") ? "gran_trace.json" : trace;
  const std::string bin = env_string("GRAN_TRACE_BIN", "");
  if (!bin.empty())
    o.trace_bin = (bin == "1" || bin == "true") ? "gran_trace.bin" : bin;
  o.trace_buf_events = static_cast<std::size_t>(env_int("GRAN_TRACE_BUF", 0));
  o.sample_out = env_string("GRAN_SAMPLE_OUT", "");
  o.metrics_out = env_string("GRAN_METRICS", "");
  o.metrics_prom = env_string("GRAN_METRICS_PROM", "");
  o.metrics_interval_us = env_int("GRAN_METRICS_US", 0);
  o.flight_prefix = env_string("GRAN_FLIGHT", "");
  if (o.flight_prefix == "1" || o.flight_prefix == "true")
    o.flight_prefix = "gran_flight";
  o.stall_ns = env_int("GRAN_STALL_NS", 0);
  o.pmu = env_string("GRAN_PMU", "");
  return o;
}

observability_session::options observability_session::options_from_cli(
    const cli_args& args, options base) {
  base.trace_out = args.get("trace-out", base.trace_out);
  base.trace_bin = args.get("trace-bin", base.trace_bin);
  base.trace_buf_events = static_cast<std::size_t>(
      args.get_int("trace-buf", static_cast<std::int64_t>(base.trace_buf_events)));
  base.sample_out = args.get("sample-out", base.sample_out);
  base.metrics_out = args.get("metrics-out", base.metrics_out);
  base.metrics_prom = args.get("metrics-prom", base.metrics_prom);
  base.metrics_interval_us =
      args.get_int("metrics-interval-us", base.metrics_interval_us);
  base.flight_prefix = args.get("flight-prefix", base.flight_prefix);
  base.stall_ns = args.get_int("stall-ns", base.stall_ns);
  base.pmu = args.get("pmu", base.pmu);
  return base;
}

observability_session::observability_session(options opt) : opt_(std::move(opt)) {
  // Configure the PMU plane before any thread manager spawns workers;
  // readers are created at worker start, so a later configure() would miss
  // them. Empty spec leaves whatever GRAN_PMU/init_from_env decided intact.
  if (!opt_.pmu.empty()) pmu_plane::instance().configure(opt_.pmu);
  if (!opt_.trace_out.empty() || !opt_.trace_bin.empty()) {
    auto& t = tracer::instance();
    t.enable(opt_.trace_buf_events);
    t.set_export_path(opt_.trace_out);
  }
  telemetry_options to;
  to.jsonl_out = opt_.metrics_out;
  to.prom_out = opt_.metrics_prom;
  to.series_out = opt_.sample_out;
  if (opt_.metrics_interval_us > 0) to.interval_us = opt_.metrics_interval_us;
  to.flight_prefix = opt_.flight_prefix;
  if (opt_.stall_ns > 0) to.watchdog.stuck_ns = opt_.stall_ns;
  if (to.enabled())
    telemetry_ = std::make_unique<telemetry_session>(std::move(to));
}

observability_session::~observability_session() { finish(); }

void observability_session::finish() {
  if (finished_) return;
  finished_ = true;
  if (telemetry_) {
    telemetry_->stop();
    if (!opt_.metrics_out.empty())
      std::cout << "(telemetry: " << telemetry_->windows_exported()
                << " windows streamed to " << opt_.metrics_out << ")\n";
    if (!opt_.metrics_prom.empty())
      std::cout << "(telemetry: Prometheus exposition in " << opt_.metrics_prom
                << ")\n";
    if (telemetry_->series_written())
      std::cout << "(counter time series: " << telemetry_->series().rows()
                << " windows written to " << opt_.sample_out << ")\n";
    if (telemetry_->incidents_raised() > 0)
      std::cout << "(watchdog: " << telemetry_->incidents_raised()
                << " stall incident(s); last flight dump: "
                << telemetry_->last_flight_path() << ")\n";
  }
  if (!opt_.trace_out.empty()) {
    // The thread manager also exports at stop(); this final export includes
    // every manager the process ran and therefore supersedes those files.
    if (tracer::instance().export_chrome_json(opt_.trace_out))
      std::cout << "(trace: " << tracer::instance().total_events() -
                                     tracer::instance().total_dropped()
                << " events written to " << opt_.trace_out
                << " — load in ui.perfetto.dev)\n";
  }
  if (!opt_.trace_bin.empty()) {
    if (tracer::instance().export_binary(opt_.trace_bin))
      std::cout << "(trace: binary dump written to " << opt_.trace_bin
                << " — analyze with gran_trace_report --in=" << opt_.trace_bin
                << ")\n";
  }
}

}  // namespace gran::perf
