#include "util/json.h"

#include <charconv>
#include <cmath>
#include <iterator>
#include <ostream>

namespace ednsm::util {

namespace {

const Json kNull{};

// ---- parser -----------------------------------------------------------------

struct Parser {
  std::string_view text;
  std::size_t pos = 0;
  int depth = 0;  // containers currently open

  void skip_ws() {
    while (pos < text.size() &&
           (text[pos] == ' ' || text[pos] == '\t' || text[pos] == '\n' || text[pos] == '\r')) {
      ++pos;
    }
  }

  [[nodiscard]] bool eat(char c) {
    if (pos < text.size() && text[pos] == c) {
      ++pos;
      return true;
    }
    return false;
  }

  [[nodiscard]] Result<Json> value() {
    skip_ws();
    if (pos >= text.size()) return Err{std::string("json: unexpected end")};
    const char c = text[pos];
    if (c == '{' || c == '[') {
      if (depth == Json::kMaxParseDepth) {
        return Err{"json: nesting deeper than " + std::to_string(Json::kMaxParseDepth)};
      }
      ++depth;
      auto container = c == '{' ? object() : array();
      --depth;
      return container;
    }
    if (c == '"') {
      auto s = string();
      if (!s) return Err{s.error()};
      return Json(std::move(s).value());
    }
    if (c == 't' || c == 'f') return boolean();
    if (c == 'n') {
      if (text.substr(pos, 4) == "null") {
        pos += 4;
        return Json(nullptr);
      }
      return Err{std::string("json: bad literal")};
    }
    return number();
  }

  [[nodiscard]] Result<Json> boolean() {
    if (text.substr(pos, 4) == "true") {
      pos += 4;
      return Json(true);
    }
    if (text.substr(pos, 5) == "false") {
      pos += 5;
      return Json(false);
    }
    return Err{std::string("json: bad literal")};
  }

  [[nodiscard]] Result<Json> number() {
    const std::size_t start = pos;
    if (pos < text.size() && text[pos] == '-') ++pos;
    while (pos < text.size() &&
           ((text[pos] >= '0' && text[pos] <= '9') || text[pos] == '.' || text[pos] == 'e' ||
            text[pos] == 'E' || text[pos] == '+' || text[pos] == '-')) {
      ++pos;
    }
    if (pos == start) return Err{std::string("json: expected value")};
    const std::string token(text.substr(start, pos - start));
    char* end = nullptr;
    const double d = std::strtod(token.c_str(), &end);
    if (end != token.c_str() + token.size()) return Err{std::string("json: bad number")};
    return Json(d);
  }

  [[nodiscard]] Result<std::string> string() {
    if (!eat('"')) return Err{std::string("json: expected string")};
    std::string out;
    while (pos < text.size()) {
      const char c = text[pos++];
      if (c == '"') return out;
      if (c == '\\') {
        if (pos >= text.size()) break;
        const char e = text[pos++];
        switch (e) {
          case '"': out.push_back('"'); break;
          case '\\': out.push_back('\\'); break;
          case '/': out.push_back('/'); break;
          case 'b': out.push_back('\b'); break;
          case 'f': out.push_back('\f'); break;
          case 'n': out.push_back('\n'); break;
          case 'r': out.push_back('\r'); break;
          case 't': out.push_back('\t'); break;
          case 'u': {
            if (pos + 4 > text.size()) return Err{std::string("json: bad \\u escape")};
            unsigned code = 0;
            for (int i = 0; i < 4; ++i) {
              const char h = text[pos++];
              code <<= 4;
              if (h >= '0' && h <= '9') code |= static_cast<unsigned>(h - '0');
              else if (h >= 'a' && h <= 'f') code |= static_cast<unsigned>(h - 'a' + 10);
              else if (h >= 'A' && h <= 'F') code |= static_cast<unsigned>(h - 'A' + 10);
              else return Err{std::string("json: bad \\u escape")};
            }
            // Encode as UTF-8 (BMP only; surrogate pairs unsupported).
            if (code < 0x80) {
              out.push_back(static_cast<char>(code));
            } else if (code < 0x800) {
              out.push_back(static_cast<char>(0xC0 | (code >> 6)));
              out.push_back(static_cast<char>(0x80 | (code & 0x3F)));
            } else {
              out.push_back(static_cast<char>(0xE0 | (code >> 12)));
              out.push_back(static_cast<char>(0x80 | ((code >> 6) & 0x3F)));
              out.push_back(static_cast<char>(0x80 | (code & 0x3F)));
            }
            break;
          }
          default:
            return Err{std::string("json: bad escape")};
        }
      } else {
        out.push_back(c);
      }
    }
    return Err{std::string("json: unterminated string")};
  }

  [[nodiscard]] Result<Json> array() {
    if (!eat('[')) return Err{std::string("json: expected array")};
    JsonArray arr;
    skip_ws();
    if (eat(']')) return Json(std::move(arr));
    while (true) {
      auto v = value();
      if (!v) return Err{v.error()};
      arr.push_back(std::move(v).value());
      skip_ws();
      if (eat(']')) return Json(std::move(arr));
      if (!eat(',')) return Err{std::string("json: expected ',' in array")};
    }
  }

  [[nodiscard]] Result<Json> object() {
    if (!eat('{')) return Err{std::string("json: expected object")};
    JsonObject obj;
    skip_ws();
    if (eat('}')) return Json(std::move(obj));
    while (true) {
      skip_ws();
      auto key = string();
      if (!key) return Err{key.error()};
      skip_ws();
      if (!eat(':')) return Err{std::string("json: expected ':'")};
      auto v = value();
      if (!v) return Err{v.error()};
      obj.emplace(std::move(key).value(), std::move(v).value());
      skip_ws();
      if (eat('}')) return Json(std::move(obj));
      if (!eat(',')) return Err{std::string("json: expected ',' in object")};
    }
  }
};

}  // namespace

const Json& Json::at(std::string_view key) const {
  if (!is_object()) return kNull;
  const auto it = as_object().find(key);
  return it == as_object().end() ? kNull : it->second;
}

std::string Json::dump(int indent) const {
  JsonWriter w(indent);
  w.value(*this);
  return std::move(w).take();
}

Result<Json> Json::parse(std::string_view text) {
  Parser p{text};
  auto v = p.value();
  if (!v) return Err{v.error()};
  p.skip_ws();
  if (p.pos != text.size()) return Err{std::string("json: trailing characters")};
  return v;
}

// ---- field reader -------------------------------------------------------------

namespace json_read {

std::string read(const Json& v, bool& out) {
  if (!v.is_bool()) return " must be a boolean";
  out = v.as_bool();
  return {};
}

std::string read(const Json& v, double& out) {
  if (!v.is_number()) return " must be a number";
  out = v.as_number();
  return {};
}

std::string read(const Json& v, std::string& out) {
  if (!v.is_string()) return " must be a string";
  out = v.as_string();
  return {};
}

}  // namespace json_read

JsonFields::JsonFields(const Json& j, std::string_view what) : what_(what) {
  if (j.is_object()) {
    fields_ = &j.as_object();
  } else {
    own_error_ = what_ + ": not an object";
  }
}

JsonFields::JsonFields(JsonFields& parent, std::string_view key)
    : what_(parent.what_ + ": " + std::string(key)), error_(parent.error_) {
  const Json* j = parent.find(key, false);
  if (j == nullptr) return;
  if (j->is_object()) {
    fields_ = &j->as_object();
  } else {
    parent.fail(key, " must be an object");
  }
}

JsonFields JsonFields::object(std::string_view key) { return JsonFields(*this, key); }

const Json* JsonFields::find(std::string_view key, bool required) {
  if (!error_->empty()) return nullptr;
  if (fields_ != nullptr) {
    const auto it = fields_->find(key);
    if (it != fields_->end() && !it->second.is_null()) return &it->second;
  }
  if (required) *error_ = what_ + ": missing " + std::string(key);
  return nullptr;
}

void JsonFields::fail(std::string_view key, std::string_view problem) {
  if (error_->empty()) *error_ = what_ + ": " + std::string(key) + std::string(problem);
}

std::string json_quote(std::string_view s) {
  JsonWriter w;
  w.value(s);
  return std::move(w).take();
}

// ---- writer -----------------------------------------------------------------

void JsonWriter::newline(std::size_t depth) {
  if (indent_ <= 0) return;
  out_.push_back('\n');
  out_.append(static_cast<std::size_t>(indent_) * depth, ' ');
}

void JsonWriter::prefix() {
  if (os_ != nullptr && out_.size() >= kFlushBytes) flush();
  if (after_key_) {
    after_key_ = false;
    return;
  }
  if (empty_.empty()) return;  // top-level value
  if (!empty_.back()) out_.push_back(',');
  empty_.back() = false;
  newline(empty_.size());
}

JsonWriter& JsonWriter::begin_object() {
  prefix();
  out_.push_back('{');
  empty_.push_back(true);
  return *this;
}

JsonWriter& JsonWriter::begin_array() {
  prefix();
  out_.push_back('[');
  empty_.push_back(true);
  return *this;
}

JsonWriter& JsonWriter::close(char c) {
  const bool was_empty = empty_.back();
  empty_.pop_back();
  if (!was_empty) newline(empty_.size());
  out_.push_back(c);
  return *this;
}

JsonWriter& JsonWriter::end_object() { return close('}'); }
JsonWriter& JsonWriter::end_array() { return close(']'); }

JsonWriter& JsonWriter::key(std::string_view k) {
  prefix();
  write_string(k);
  out_.append(indent_ > 0 ? ": " : ":");
  after_key_ = true;
  return *this;
}

JsonWriter& JsonWriter::value(std::string_view s) {
  prefix();
  write_string(s);
  return *this;
}

JsonWriter& JsonWriter::value(double d) {
  prefix();
  if (std::isnan(d) || std::isinf(d)) {
    out_.append("null");  // JSON has no NaN/Inf; null is the least-wrong choice
    return *this;
  }
  // Integers print without a decimal point; everything else round-trips.
  // to_chars with a precision is specified as printf "%.0f" / "%.17g".
  char buf[32];
  const bool integral = d == std::floor(d) && std::abs(d) < 1e15;
  const auto res = integral ? std::to_chars(buf, std::end(buf), d, std::chars_format::fixed, 0)
                            : std::to_chars(buf, std::end(buf), d, std::chars_format::general, 17);
  out_.append(buf, res.ptr);
  return *this;
}

JsonWriter& JsonWriter::shortest(double d) {
  if (std::isnan(d) || std::isinf(d)) return value(nullptr);
  prefix();
  char buf[32];
  const auto res = std::to_chars(buf, std::end(buf), d);
  out_.append(buf, res.ptr);
  return *this;
}

JsonWriter& JsonWriter::value(bool b) {
  prefix();
  out_.append(b ? "true" : "false");
  return *this;
}

JsonWriter& JsonWriter::value(std::nullptr_t) {
  prefix();
  out_.append("null");
  return *this;
}

JsonWriter& JsonWriter::value(const Json& j) {
  if (j.is_null()) return value(nullptr);
  if (j.is_bool()) return value(j.as_bool());
  if (j.is_number()) return value(j.as_number());
  if (j.is_string()) return value(std::string_view(j.as_string()));
  if (j.is_array()) {
    begin_array();
    for (const Json& e : j.as_array()) value(e);
    return end_array();
  }
  begin_object();
  for (const auto& [k, v] : j.as_object()) key(k).value(v);
  return end_object();
}

void JsonWriter::write_string(std::string_view s) {
  out_.push_back('"');
  // Copy runs of plain characters in one append; escape the rest in place.
  std::size_t run = 0;
  for (std::size_t i = 0; i < s.size(); ++i) {
    const auto c = static_cast<unsigned char>(s[i]);
    if (c >= 0x20 && c != '"' && c != '\\') continue;
    out_.append(s.data() + run, i - run);
    run = i + 1;
    switch (c) {
      case '"': out_.append("\\\""); break;
      case '\\': out_.append("\\\\"); break;
      case '\b': out_.append("\\b"); break;
      case '\f': out_.append("\\f"); break;
      case '\n': out_.append("\\n"); break;
      case '\r': out_.append("\\r"); break;
      case '\t': out_.append("\\t"); break;
      default: {
        constexpr char kHex[] = "0123456789abcdef";
        const char esc[] = {'\\', 'u', '0', '0', kHex[c >> 4], kHex[c & 0xF]};
        out_.append(esc, sizeof esc);
      }
    }
  }
  out_.append(s.data() + run, s.size() - run);
  out_.push_back('"');
}

void JsonWriter::flush() {
  if (os_ == nullptr) return;
  os_->write(out_.data(), static_cast<std::streamsize>(out_.size()));
  out_.clear();
}

}  // namespace ednsm::util
