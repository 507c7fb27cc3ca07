#include "util/json.h"

#include <cmath>
#include <cstdio>
#include <sstream>

namespace ednsm::util {

namespace {

const Json kNull{};

void dump_impl(const Json& j, std::string& out, int indent, int depth);

void append_indent(std::string& out, int indent, int depth) {
  if (indent <= 0) return;
  out.push_back('\n');
  out.append(static_cast<std::size_t>(indent * depth), ' ');
}

void dump_number(double d, std::string& out) {
  if (std::isnan(d) || std::isinf(d)) {
    out.append("null");  // JSON has no NaN/Inf; null is the least-wrong choice
    return;
  }
  // Integers print without a decimal point; everything else round-trips.
  if (d == std::floor(d) && std::abs(d) < 1e15) {
    char buf[32];
    std::snprintf(buf, sizeof buf, "%.0f", d);
    out.append(buf);
    return;
  }
  char buf[32];
  std::snprintf(buf, sizeof buf, "%.17g", d);
  out.append(buf);
}

void dump_impl(const Json& j, std::string& out, int indent, int depth) {
  if (j.is_null()) {
    out.append("null");
  } else if (j.is_bool()) {
    out.append(j.as_bool() ? "true" : "false");
  } else if (j.is_number()) {
    dump_number(j.as_number(), out);
  } else if (j.is_string()) {
    out.push_back('"');
    out.append(json_escape(j.as_string()));
    out.push_back('"');
  } else if (j.is_array()) {
    const JsonArray& arr = j.as_array();
    if (arr.empty()) {
      out.append("[]");
      return;
    }
    out.push_back('[');
    for (std::size_t i = 0; i < arr.size(); ++i) {
      if (i != 0) out.push_back(',');
      append_indent(out, indent, depth + 1);
      dump_impl(arr[i], out, indent, depth + 1);
    }
    append_indent(out, indent, depth);
    out.push_back(']');
  } else {
    const JsonObject& obj = j.as_object();
    if (obj.empty()) {
      out.append("{}");
      return;
    }
    out.push_back('{');
    bool first = true;
    for (const auto& [k, v] : obj) {
      if (!first) out.push_back(',');
      first = false;
      append_indent(out, indent, depth + 1);
      out.push_back('"');
      out.append(json_escape(k));
      out.append(indent > 0 ? "\": " : "\":");
      dump_impl(v, out, indent, depth + 1);
    }
    append_indent(out, indent, depth);
    out.push_back('}');
  }
}

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

const Json& Json::at(const std::string& key) const {
  if (!is_object()) return kNull;
  const auto it = as_object().find(key);
  return it == as_object().end() ? kNull : it->second;
}

std::string Json::dump(int indent) const {
  std::string out;
  dump_impl(*this, out, indent, 0);
  return out;
}

Result<Json> Json::parse(std::string_view text) {
  Parser p{text};
  auto v = p.value();
  if (!v) return Err{v.error()};
  p.skip_ws();
  if (p.pos != text.size()) return Err{std::string("json: trailing characters")};
  return v;
}

std::string json_escape(std::string_view s) {
  std::string out;
  out.reserve(s.size());
  for (char c : s) {
    switch (c) {
      case '"': out.append("\\\""); break;
      case '\\': out.append("\\\\"); break;
      case '\b': out.append("\\b"); break;
      case '\f': out.append("\\f"); break;
      case '\n': out.append("\\n"); break;
      case '\r': out.append("\\r"); break;
      case '\t': out.append("\\t"); break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          char buf[8];
          std::snprintf(buf, sizeof buf, "\\u%04x", c);
          out.append(buf);
        } else {
          out.push_back(c);
        }
    }
  }
  return out;
}

}  // namespace ednsm::util
