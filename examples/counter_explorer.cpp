// Lists every registered performance counter with its description and live
// value — gran's equivalent of HPX's --hpx:print-counter interface.
//
//   $ ./counter_explorer                # burst of work, then dump counters
//   $ ./counter_explorer --prefix=/threads/count
#include <cstdio>
#include <iostream>

#include "async/gran.hpp"
#include "util/cli.hpp"
#include "util/table.hpp"

using namespace gran;

int main(int argc, char** argv) {
  const cli_args args(argc, argv);
  const std::string prefix = args.get("prefix", "/");

  scheduler_config cfg;
  cfg.num_workers = static_cast<int>(args.get_int("workers", 2));
  cfg.pin_workers = false;
  thread_manager tm(cfg);

  // Generate some activity so the counters have something to show.
  std::vector<future<double>> work;
  for (int i = 0; i < 5'000; ++i)
    work.push_back(async([i] {
      double acc = i;
      for (int k = 0; k < 500; ++k) acc = acc * 0.999 + 1.0;
      return acc;
    }));
  when_all(work).wait();

  auto& registry = perf::registry::instance();
  table_writer table({"counter", "value", "description"});
  for (const auto& path : registry.list(prefix)) {
    const auto v = registry.query(path);
    table.add_row({path, v ? format_number(v->value, 2) : "?", registry.describe(path)});
  }
  std::cout << "registered performance counters under '" << prefix << "':\n";
  table.print(std::cout);

  // Interval semantics: a window opened before the work and closed after it
  // — the basis for the paper's "dynamic measurement over any interval of
  // interest".
  perf::window_aggregator window(perf::window_options{{"/threads/count"}});
  when_all(std::vector<future<double>>{async([] { return 1.0; })}).wait();
  const perf::window_snapshot interval = window.tick();
  std::printf("\ntasks executed during the interval: %.0f\n",
              interval.delta_or("/threads/count/cumulative", 0.0));
  return 0;
}
