// Strict numeric command-line flags, shared by the ednsm tools: a value must
// be a plain decimal count in range, so "--rounds 2abc" is bad usage instead
// of a silent 2.
#pragma once

#include <cstdio>
#include <map>
#include <string>

#include "util/strings.h"

namespace ednsm::tools {

// Reads --name from `options` as a count of at least `min` into `out` (left
// alone when the flag is absent); prints why and returns false when the value
// is malformed.
template <typename T>
bool count_flag(const std::map<std::string, std::string>& options, const char* name, T& out,
                T min = 0) {
  const auto it = options.find(name);
  if (it == options.end()) return true;
  auto value = util::parse_count(it->second, min);
  if (!value) {
    std::fprintf(stderr, "error: --%s: %s\n", name, value.error().c_str());
    return false;
  }
  out = value.value();
  return true;
}

}  // namespace ednsm::tools
