// Minimal JSON document model, streaming writer, parser, and field reader.
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
//
// JsonFields is the one way a decoder reads a parsed object's fields. Every
// from_json in the tree goes through it, so every file decodes under the same
// rules: absent or null keeps the default, a wrong JSON type is an error, and
// an integer must be integral and in range (casting 1e300 to an int is
// undefined behaviour, so it never reaches a cast).
#pragma once

#include <cmath>
#include <concepts>
#include <cstdint>
#include <iosfwd>
#include <limits>
#include <map>
#include <memory>
#include <optional>
#include <string>
#include <string_view>
#include <tuple>
#include <utility>
#include <variant>
#include <vector>

#include "util/result.h"

namespace ednsm::util {

class Json;
using JsonArray = std::vector<Json>;
// Sorted keys give stable output; std::less<> lets lookups take a string_view.
using JsonObject = std::map<std::string, Json, std::less<>>;

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
  [[nodiscard]] const Json& at(std::string_view key) const;

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

// `s` as a quoted JSON string, escaped by JsonWriter's own string path (for
// hand-assembled formats such as JSONL lines and chrome traces).
[[nodiscard]] std::string json_quote(std::string_view s);

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
  // A number as the shortest text that parses back to exactly `d`
  // (std::to_chars without a precision): "29.708" where value() prints
  // "29.707999999999998". For files that hold many measured values; NaN and
  // Inf become null, as in value().
  JsonWriter& shortest(double d);
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

// ---- field reader -----------------------------------------------------------

// A type that decodes itself: `static Result<T> T::from_json(const Json&)`.
template <typename T>
concept JsonDecodable = requires(const Json& j) {
  { T::from_json(j) } -> std::same_as<Result<T>>;
};

// A fixed-length JSON array decoded slot by slot: std::tuple, std::pair or
// std::array.
template <typename T>
concept JsonTuple = requires { std::tuple_size<T>::value; };

// Value decoders behind JsonFields. Each returns "" on success, or the text
// that turns "<object>: <key>" into an error message: " must be a string",
// "[2] must be an integer in range", ": record: missing vantage". A null
// element inside an array is a type error; only a null *field* means absent.
namespace json_read {

[[nodiscard]] std::string read(const Json& v, bool& out);
[[nodiscard]] std::string read(const Json& v, double& out);
[[nodiscard]] std::string read(const Json& v, std::string& out);
template <std::integral T>
  requires(!std::same_as<T, bool>)
[[nodiscard]] std::string read(const Json& v, T& out);
template <JsonDecodable T>
[[nodiscard]] std::string read(const Json& v, T& out);
template <typename T>
[[nodiscard]] std::string read(const Json& v, std::optional<T>& out);
template <typename T>
[[nodiscard]] std::string read(const Json& v, std::vector<T>& out);
template <JsonTuple T>
[[nodiscard]] std::string read(const Json& v, T& out);

// Decodes an array element by element through `element(const Json&, T&)`.
template <typename T, typename Element>
[[nodiscard]] std::string read_each(const Json& v, std::vector<T>& out, Element element) {
  if (!v.is_array()) return " must be an array";
  const JsonArray& arr = v.as_array();
  out.clear();
  out.reserve(arr.size());
  for (std::size_t i = 0; i < arr.size(); ++i) {
    T value{};
    if (std::string err = element(arr[i], value); !err.empty()) {
      return "[" + std::to_string(i) + "]" + err;
    }
    out.push_back(std::move(value));
  }
  return {};
}

// Adapts a `Result<T>(const Json&)` decoder to the error-suffix convention.
template <typename T, typename Decode>
[[nodiscard]] std::string decode_into(const Json& v, T& out, Decode decode) {
  auto r = decode(v);
  if (!r) return ": " + r.error();
  out = std::move(r).value();
  return {};
}

template <std::integral T>
  requires(!std::same_as<T, bool>)
std::string read(const Json& v, T& out) {
  if (!v.is_number()) return " must be a number";
  const double d = v.as_number();
  // Bounds are powers of two, exact as doubles: [min, max + 1).
  const double hi = std::ldexp(1.0, std::numeric_limits<T>::digits);
  const double lo = std::numeric_limits<T>::is_signed ? -hi : 0.0;
  if (!(d >= lo && d < hi) || d != std::trunc(d)) return " must be an integer in range";
  out = static_cast<T>(d);
  return {};
}

template <JsonDecodable T>
std::string read(const Json& v, T& out) {
  return decode_into(v, out, [](const Json& j) { return T::from_json(j); });
}

template <typename T>
std::string read(const Json& v, std::optional<T>& out) {
  return read(v, out.emplace());
}

template <typename T>
std::string read(const Json& v, std::vector<T>& out) {
  return read_each(v, out, [](const Json& e, T& value) { return read(e, value); });
}

template <JsonTuple T>
std::string read(const Json& v, T& out) {
  constexpr std::size_t kSize = std::tuple_size_v<T>;
  if (!v.is_array() || v.as_array().size() != kSize) {
    return " must be an array of " + std::to_string(kSize);
  }
  const JsonArray& arr = v.as_array();
  std::string err;
  const auto slot = [&](std::size_t i, auto& value) {
    if (!err.empty()) return;
    err = read(arr[i], value);
    if (!err.empty()) err = "[" + std::to_string(i) + "]" + err;
  };
  [&]<std::size_t... I>(std::index_sequence<I...>) {
    (slot(I, std::get<I>(out)), ...);
  }(std::make_index_sequence<kSize>{});
  return err;
}

}  // namespace json_read

// Reads the fields of one JSON object, each with one call and the same rules:
//   - an absent or null field keeps the caller's default (the writer turns
//     NaN into null); a required field that is absent or null is an error;
//   - a field of the wrong JSON type is an error;
//   - an integer field must hold an integral value inside the target type's
//     range; strings, bools, doubles, vectors, tuple-likes (fixed-length
//     arrays), std::optional and any JsonDecodable type read the same way;
//   - the first error sticks and names the object and the key; later reads
//     do nothing.
// Semantic checks (versions, ranges, cross-field rules) stay with the
// decoder, after the reads:
//
//   JsonFields f(j, "epoch summary");
//   f.required("epoch", s.epoch).optional("availability", s.availability);
//   return f.result(std::move(s));
class JsonFields {
 public:
  // `what` names the object in errors; a non-object `j` is an error. The
  // reader points into `j`, so `j` must outlive it.
  JsonFields(const Json& j, std::string_view what);
  JsonFields(const Json&& j, std::string_view what) = delete;
  JsonFields(const JsonFields&) = delete;
  JsonFields& operator=(const JsonFields&) = delete;

  template <typename T>
  JsonFields& required(std::string_view key, T& out) {
    return read_field(key, true, [&out](const Json& v) { return json_read::read(v, out); });
  }
  template <typename T>
  JsonFields& optional(std::string_view key, T& out) {
    return read_field(key, false, [&out](const Json& v) { return json_read::read(v, out); });
  }
  // An array field whose elements decode through `decode` (const Json& ->
  // Result<T>), for element decoders that need context or another name.
  template <typename T, typename Decode>
  JsonFields& required(std::string_view key, std::vector<T>& out, Decode decode) {
    const auto element = [&decode](const Json& e, T& value) {
      return json_read::decode_into(e, value, decode);
    };
    return read_field(key, true,
                      [&](const Json& v) { return json_read::read_each(v, out, element); });
  }

  // A reader for the object field `key` whose errors land here, named
  // "<what>: <key>". An absent or null object reads as one with no fields.
  [[nodiscard]] JsonFields object(std::string_view key);

  [[nodiscard]] explicit operator bool() const noexcept { return error_->empty(); }
  [[nodiscard]] const std::string& error() const noexcept { return *error_; }
  // `value` when every read succeeded, the first error otherwise.
  template <typename T>
  [[nodiscard]] Result<T> result(T value) const {
    if (!*this) return Err{error()};
    return value;
  }

 private:
  JsonFields(JsonFields& parent, std::string_view key);

  template <typename Read>
  JsonFields& read_field(std::string_view key, bool required, Read read) {
    if (const Json* v = find(key, required)) {
      if (std::string err = read(*v); !err.empty()) fail(key, err);
    }
    return *this;
  }
  // The value at `key`; nullptr after an error or when the field is absent or
  // null (an error when it is required).
  [[nodiscard]] const Json* find(std::string_view key, bool required);
  void fail(std::string_view key, std::string_view problem);

  const JsonObject* fields_ = nullptr;  // nullptr: every field is absent
  std::string what_;
  std::string own_error_;
  std::string* error_ = &own_error_;  // the outermost reader's
};

}  // namespace ednsm::util
