// Minimal JSON document model, streaming writer, and parser.
//
// The paper's tool "writes the results to a JSON file"; this is that layer,
// implemented from scratch (no third-party dependencies are available in the
// build environment). Supports the full JSON grammar except for \u escapes
// beyond the BMP-ASCII range (emitted as-is; parsed literally), which the
// result schema never produces.
//
// JsonWriter is the one emitter: the results and shard files stream through
// it record by record with no document in between, and Json::dump walks a
// document into the same writer, so every JSON file shares one byte format.
#pragma once

#include <cstdint>
#include <iosfwd>
#include <map>
#include <memory>
#include <string>
#include <string_view>
#include <variant>
#include <vector>

#include "util/result.h"

namespace ednsm::util {

class Json;
using JsonArray = std::vector<Json>;
using JsonObject = std::map<std::string, Json>;  // sorted keys: stable output

class Json {
 public:
  Json() : value_(nullptr) {}
  Json(std::nullptr_t) : value_(nullptr) {}
  Json(bool b) : value_(b) {}
  Json(double d) : value_(d) {}
  Json(int i) : value_(static_cast<double>(i)) {}
  Json(std::int64_t i) : value_(static_cast<double>(i)) {}
  Json(std::uint64_t u) : value_(static_cast<double>(u)) {}
  Json(const char* s) : value_(std::string(s)) {}
  Json(std::string s) : value_(std::move(s)) {}
  Json(JsonArray a) : value_(std::move(a)) {}
  Json(JsonObject o) : value_(std::move(o)) {}

  [[nodiscard]] bool is_null() const noexcept { return std::holds_alternative<std::nullptr_t>(value_); }
  [[nodiscard]] bool is_bool() const noexcept { return std::holds_alternative<bool>(value_); }
  [[nodiscard]] bool is_number() const noexcept { return std::holds_alternative<double>(value_); }
  [[nodiscard]] bool is_string() const noexcept { return std::holds_alternative<std::string>(value_); }
  [[nodiscard]] bool is_array() const noexcept { return std::holds_alternative<JsonArray>(value_); }
  [[nodiscard]] bool is_object() const noexcept { return std::holds_alternative<JsonObject>(value_); }

  // Typed accessors; throw std::bad_variant_access on type mismatch (caller bug).
  [[nodiscard]] bool as_bool() const { return std::get<bool>(value_); }
  [[nodiscard]] double as_number() const { return std::get<double>(value_); }
  [[nodiscard]] const std::string& as_string() const { return std::get<std::string>(value_); }
  [[nodiscard]] const JsonArray& as_array() const { return std::get<JsonArray>(value_); }
  [[nodiscard]] JsonArray& as_array() { return std::get<JsonArray>(value_); }
  [[nodiscard]] const JsonObject& as_object() const { return std::get<JsonObject>(value_); }
  [[nodiscard]] JsonObject& as_object() { return std::get<JsonObject>(value_); }

  // Object field access; returns null Json for missing keys.
  [[nodiscard]] const Json& at(const std::string& key) const;

  [[nodiscard]] bool operator==(const Json&) const = default;

  // Serialize. indent 0 = compact; otherwise pretty-printed.
  [[nodiscard]] std::string dump(int indent = 0) const;

  // Deepest container nesting parse() accepts. The parser recurses once per
  // level, so a fixed bound keeps hostile input ("[[[[...") from exhausting
  // the stack; deeper documents are an error, not a crash.
  static constexpr int kMaxParseDepth = 512;

  [[nodiscard]] static Result<Json> parse(std::string_view text);

 private:
  std::variant<std::nullptr_t, bool, double, std::string, JsonArray, JsonObject> value_;
};

// Streaming JSON emitter. Callers open and close containers, write keys and
// values in order, and the writer places separators and (for indent > 0)
// newlines and indentation:
//
//   JsonWriter w(os, 2);
//   w.begin_object();
//   w.key("n").value(3);
//   w.key("tags").begin_array().value("doh").end_array();
//   w.end_object();
//   w.flush();
//
// Keys are written in call order; encoders that must match a sorted-map
// document emit them sorted. Numbers: NaN/Inf become null, integral values
// with |d| < 1e15 print without a decimal point (printf "%.0f"), anything else
// round-trips ("%.17g"); integer overloads convert to double first, exactly
// like the Json constructors. Output accumulates in a buffer the writer owns;
// a writer wrapping a stream hands that buffer to it each time it passes
// kFlushBytes, so a large file is never held whole in memory.
class JsonWriter {
 public:
  static constexpr std::size_t kFlushBytes = 64 * 1024;

  // Writes into the owned buffer only; take() returns it.
  explicit JsonWriter(int indent = 0) : indent_(indent) {}
  // Writes through to `os` (call flush() when done).
  JsonWriter(std::ostream& os, int indent) : os_(&os), indent_(indent) {}

  JsonWriter& begin_object();
  JsonWriter& end_object();
  JsonWriter& begin_array();
  JsonWriter& end_array();
  JsonWriter& key(std::string_view k);

  JsonWriter& value(std::string_view s);
  // Without these, a literal would convert to bool and a std::string would
  // be ambiguous between string_view and Json.
  JsonWriter& value(const std::string& s) { return value(std::string_view(s)); }
  JsonWriter& value(const char* s) { return value(std::string_view(s)); }
  JsonWriter& value(double d);
  JsonWriter& value(int i) { return value(static_cast<double>(i)); }
  JsonWriter& value(std::int64_t i) { return value(static_cast<double>(i)); }
  JsonWriter& value(std::uint64_t u) { return value(static_cast<double>(u)); }
  JsonWriter& value(bool b);
  JsonWriter& value(std::nullptr_t);
  // Splices a document subtree at the current position and depth.
  JsonWriter& value(const Json& j);

  // Hands the buffered bytes to the stream (no-op without one).
  void flush();
  // The buffered bytes (everything, when there is no stream).
  [[nodiscard]] std::string take() && { return std::move(out_); }

 private:
  // Separator and indentation before a key or a value; flushes a full buffer.
  void prefix();
  void newline(std::size_t depth);
  void write_string(std::string_view s);
  JsonWriter& close(char c);

  std::ostream* os_ = nullptr;
  int indent_ = 0;
  std::string out_;
  // One entry per open container: true until its first element is written.
  std::vector<bool> empty_;
  bool after_key_ = false;
};

}  // namespace ednsm::util
