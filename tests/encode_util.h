// Test helpers for the streaming encoders (`void to_json(util::JsonWriter&)`):
// the bytes an encoder writes, and the document those bytes parse back to,
// for tests that inspect or tamper with fields.
#pragma once

#include <stdexcept>
#include <string>

#include "util/json.h"

namespace ednsm::test {

template <typename T>
[[nodiscard]] std::string encode(const T& value, int indent = 0) {
  util::JsonWriter w(indent);
  value.to_json(w);
  return std::move(w).take();
}

template <typename T>
[[nodiscard]] util::Json as_dom(const T& value) {
  auto j = util::Json::parse(encode(value));
  if (!j) throw std::logic_error("encoder wrote invalid JSON: " + j.error());
  return std::move(j).value();
}

}  // namespace ednsm::test
