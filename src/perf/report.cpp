#include "perf/report.hpp"

#include <ostream>

#include "util/table.hpp"

namespace gran::perf {

void dump_csv(std::ostream& os, const std::string& prefix) {
  os << "counter,value\n";
  for (const auto& path : registry::instance().list(prefix)) {
    const auto v = registry::instance().query(path);
    if (v) os << path << ',' << format_number(v->value, 6) << '\n';
  }
}

void dump_table(std::ostream& os, const std::string& prefix) {
  table_writer table({"counter", "value", "description"});
  for (const auto& path : registry::instance().list(prefix)) {
    const auto v = registry::instance().query(path);
    table.add_row({path, v ? format_number(v->value, 2) : "?",
                   registry::instance().describe(path)});
  }
  table.print(os);
}

}  // namespace gran::perf
