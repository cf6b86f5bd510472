// Reader for a bench's previous --json dump, the reference of its
// cross-session --baseline gate.
#pragma once

#include <fstream>
#include <iostream>
#include <optional>
#include <sstream>
#include <string>

#include "util/minijson.hpp"

namespace gran::bench {

// The parsed baseline object; nullopt, after saying why on stderr, when the
// file cannot be read or is not a JSON object. Callers exit 2 then: a gate
// without a usable reference has not run.
inline std::optional<json_value> read_baseline(const std::string& path) {
  std::ifstream f(path);
  if (!f) {
    std::cerr << "cannot read baseline " << path << "\n";
    return std::nullopt;
  }
  std::stringstream ss;
  ss << f.rdbuf();
  std::string error;
  std::optional<json_value> doc = json_value::parse(ss.str(), &error);
  if (!doc) {
    std::cerr << "baseline " << path << " is not valid JSON (" << error << ")\n";
    return std::nullopt;
  }
  if (!doc->is_object()) {
    std::cerr << "baseline " << path << " is not a JSON object\n";
    return std::nullopt;
  }
  return doc;
}

}  // namespace gran::bench
