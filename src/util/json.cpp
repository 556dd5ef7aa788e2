#include "util/json.hpp"

#include <cctype>
#include <charconv>
#include <cmath>
#include <cstdio>
#include <fstream>
#include <limits>
#include <sstream>

namespace haste::util {

namespace {

constexpr int kMaxDepth = 128;

/// Recursive-descent JSON parser over a string_view.
class Parser {
 public:
  explicit Parser(std::string_view text) : text_(text) {}

  Json parse_document() {
    Json value = parse_value(0);
    skip_whitespace();
    if (pos_ != text_.size()) fail("trailing characters after JSON document");
    return value;
  }

 private:
  [[noreturn]] void fail(const std::string& message) const {
    throw JsonError("JSON parse error at offset " + std::to_string(pos_) + ": " +
                    message);
  }

  void skip_whitespace() {
    while (pos_ < text_.size() &&
           (text_[pos_] == ' ' || text_[pos_] == '\t' || text_[pos_] == '\n' ||
            text_[pos_] == '\r')) {
      ++pos_;
    }
  }

  char peek() {
    if (pos_ >= text_.size()) fail("unexpected end of input");
    return text_[pos_];
  }

  void expect(char c) {
    if (peek() != c) fail(std::string("expected '") + c + "'");
    ++pos_;
  }

  bool consume_literal(std::string_view literal) {
    if (text_.substr(pos_, literal.size()) == literal) {
      pos_ += literal.size();
      return true;
    }
    return false;
  }

  Json parse_value(int depth) {
    if (depth > kMaxDepth) fail("nesting too deep");
    skip_whitespace();
    const char c = peek();
    switch (c) {
      case '{':
        return parse_object(depth);
      case '[':
        return parse_array(depth);
      case '"':
        return Json(parse_string());
      case 't':
        if (consume_literal("true")) return Json(true);
        fail("invalid literal");
      case 'f':
        if (consume_literal("false")) return Json(false);
        fail("invalid literal");
      case 'n':
        if (consume_literal("null")) return Json(nullptr);
        fail("invalid literal");
      // Lenient extension: accept the non-finite literals google-benchmark
      // writes into its JSON dumps (e.g. the cv aggregate of a zero-mean
      // counter is NaN). Parse-only — the serializer still refuses to emit
      // non-finite numbers, so documents we *write* stay strict JSON.
      case 'N':
        if (consume_literal("NaN")) {
          return Json(std::numeric_limits<double>::quiet_NaN());
        }
        fail("invalid literal");
      case 'I':
        if (consume_literal("Infinity")) {
          return Json(std::numeric_limits<double>::infinity());
        }
        fail("invalid literal");
      default:
        return parse_number();
    }
  }

  Json parse_object(int depth) {
    expect('{');
    Json object = Json::object();
    skip_whitespace();
    if (peek() == '}') {
      ++pos_;
      return object;
    }
    for (;;) {
      skip_whitespace();
      const std::string key = parse_string();
      skip_whitespace();
      expect(':');
      object.set(key, parse_value(depth + 1));
      skip_whitespace();
      const char c = peek();
      if (c == ',') {
        ++pos_;
        continue;
      }
      if (c == '}') {
        ++pos_;
        return object;
      }
      fail("expected ',' or '}' in object");
    }
  }

  Json parse_array(int depth) {
    expect('[');
    Json array = Json::array();
    skip_whitespace();
    if (peek() == ']') {
      ++pos_;
      return array;
    }
    for (;;) {
      array.push_back(parse_value(depth + 1));
      skip_whitespace();
      const char c = peek();
      if (c == ',') {
        ++pos_;
        continue;
      }
      if (c == ']') {
        ++pos_;
        return array;
      }
      fail("expected ',' or ']' in array");
    }
  }

  std::string parse_string() {
    expect('"');
    std::string out;
    for (;;) {
      if (pos_ >= text_.size()) fail("unterminated string");
      const char c = text_[pos_++];
      if (c == '"') return out;
      if (c == '\\') {
        if (pos_ >= text_.size()) fail("unterminated escape");
        const char e = text_[pos_++];
        switch (e) {
          case '"': out += '"'; break;
          case '\\': out += '\\'; break;
          case '/': out += '/'; break;
          case 'b': out += '\b'; break;
          case 'f': out += '\f'; break;
          case 'n': out += '\n'; break;
          case 'r': out += '\r'; break;
          case 't': out += '\t'; break;
          case 'u': append_unicode_escape(out); break;
          default: fail("invalid escape");
        }
        continue;
      }
      if (static_cast<unsigned char>(c) < 0x20) fail("control character in string");
      out += c;
    }
  }

  void append_unicode_escape(std::string& out) {
    if (pos_ + 4 > text_.size()) fail("truncated \\u escape");
    unsigned code = 0;
    for (int i = 0; i < 4; ++i) {
      const char h = text_[pos_++];
      code <<= 4;
      if (h >= '0' && h <= '9') code |= static_cast<unsigned>(h - '0');
      else if (h >= 'a' && h <= 'f') code |= static_cast<unsigned>(h - 'a' + 10);
      else if (h >= 'A' && h <= 'F') code |= static_cast<unsigned>(h - 'A' + 10);
      else fail("invalid \\u escape");
    }
    // Encode the BMP code point as UTF-8 (surrogate pairs unsupported: the
    // library never emits them; reject to stay strict).
    if (code >= 0xd800 && code <= 0xdfff) fail("surrogate pairs unsupported");
    if (code < 0x80) {
      out += static_cast<char>(code);
    } else if (code < 0x800) {
      out += static_cast<char>(0xc0 | (code >> 6));
      out += static_cast<char>(0x80 | (code & 0x3f));
    } else {
      out += static_cast<char>(0xe0 | (code >> 12));
      out += static_cast<char>(0x80 | ((code >> 6) & 0x3f));
      out += static_cast<char>(0x80 | (code & 0x3f));
    }
  }

  Json parse_number() {
    const std::size_t start = pos_;
    if (pos_ < text_.size() && text_[pos_] == '-') ++pos_;
    if (consume_literal("Infinity")) {
      return Json(text_[start] == '-' ? -std::numeric_limits<double>::infinity()
                                      : std::numeric_limits<double>::infinity());
    }
    while (pos_ < text_.size() &&
           (std::isdigit(static_cast<unsigned char>(text_[pos_])) || text_[pos_] == '.' ||
            text_[pos_] == 'e' || text_[pos_] == 'E' || text_[pos_] == '+' ||
            text_[pos_] == '-')) {
      ++pos_;
    }
    if (pos_ == start) fail("invalid value");
    double value = 0.0;
    const auto [ptr, ec] =
        std::from_chars(text_.data() + start, text_.data() + pos_, value);
    if (ec != std::errc{} || ptr != text_.data() + pos_) fail("malformed number");
    return Json(value);
  }

  std::string_view text_;
  std::size_t pos_ = 0;
};

void dump_string(std::string& out, const std::string& value) {
  out += '"';
  for (char c : value) {
    switch (c) {
      case '"': out += "\\\""; break;
      case '\\': out += "\\\\"; break;
      case '\b': out += "\\b"; break;
      case '\f': out += "\\f"; break;
      case '\n': out += "\\n"; break;
      case '\r': out += "\\r"; break;
      case '\t': out += "\\t"; break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          char buffer[8];
          std::snprintf(buffer, sizeof(buffer), "\\u%04x", c);
          out += buffer;
        } else {
          out += c;
        }
    }
  }
  out += '"';
}

void dump_number(std::string& out, double value) {
  if (!std::isfinite(value)) throw JsonError("cannot serialize non-finite number");
  char buffer[64];
  const auto [ptr, ec] = std::to_chars(buffer, buffer + sizeof(buffer), value);
  if (ec != std::errc{}) throw JsonError("number formatting failed");
  out.append(buffer, ptr);
}

void indent_to(std::string& out, int indent, int depth) {
  if (indent < 0) return;
  out += '\n';
  out.append(static_cast<std::size_t>(indent) * static_cast<std::size_t>(depth), ' ');
}

}  // namespace

Json Json::array() {
  Json j;
  j.type_ = Type::kArray;
  return j;
}

Json Json::object() {
  Json j;
  j.type_ = Type::kObject;
  return j;
}

Json Json::parse(std::string_view text) { return Parser(text).parse_document(); }

bool Json::as_bool() const {
  if (!is_bool()) throw JsonError("not a bool");
  return bool_;
}

double Json::as_number() const {
  if (!is_number()) throw JsonError("not a number");
  return number_;
}

std::int64_t Json::as_int() const {
  const double value = as_number();
  // Casting a double outside the int64 range is undefined; reject it first
  // (the negated test also rejects NaN).
  if (!(value >= -0x1p63 && value < 0x1p63)) {
    throw JsonError("number is outside the int64 range");
  }
  const auto integral = static_cast<std::int64_t>(value);
  if (static_cast<double>(integral) != value) throw JsonError("number is not integral");
  return integral;
}

const std::string& Json::as_string() const {
  if (!is_string()) throw JsonError("not a string");
  return string_;
}

std::size_t Json::size() const {
  if (is_array()) return array_.size();
  if (is_object()) return object_.size();
  throw JsonError("size() on non-container");
}

const Json& Json::at(std::size_t index) const {
  if (!is_array()) throw JsonError("indexing a non-array");
  if (index >= array_.size()) throw JsonError("array index out of range");
  return array_[index];
}

Json& Json::push_back(Json value) {
  if (!is_array()) throw JsonError("push_back on non-array");
  array_.push_back(std::move(value));
  return array_.back();
}

bool Json::contains(const std::string& key) const {
  if (!is_object()) throw JsonError("contains() on non-object");
  return object_.count(key) != 0;
}

const Json& Json::at(const std::string& key) const {
  if (!is_object()) throw JsonError("key lookup on non-object");
  const auto it = object_.find(key);
  if (it == object_.end()) throw JsonError("missing key: " + key);
  return it->second;
}

Json& Json::set(const std::string& key, Json value) {
  if (!is_object()) throw JsonError("set() on non-object");
  return object_[key] = std::move(value);
}

const std::map<std::string, Json>& Json::items() const {
  if (!is_object()) throw JsonError("items() on non-object");
  return object_;
}

double Json::number_or(const std::string& key, double fallback) const {
  return contains(key) ? at(key).as_number() : fallback;
}

std::string Json::string_or(const std::string& key, const std::string& fallback) const {
  return contains(key) ? at(key).as_string() : fallback;
}

bool Json::bool_or(const std::string& key, bool fallback) const {
  return contains(key) ? at(key).as_bool() : fallback;
}

void Json::dump_to(std::string& out, int indent, int depth) const {
  switch (type_) {
    case Type::kNull:
      out += "null";
      return;
    case Type::kBool:
      out += bool_ ? "true" : "false";
      return;
    case Type::kNumber:
      dump_number(out, number_);
      return;
    case Type::kString:
      dump_string(out, string_);
      return;
    case Type::kArray: {
      out += '[';
      for (std::size_t i = 0; i < array_.size(); ++i) {
        if (i != 0) out += ',';
        indent_to(out, indent, depth + 1);
        array_[i].dump_to(out, indent, depth + 1);
      }
      if (!array_.empty()) indent_to(out, indent, depth);
      out += ']';
      return;
    }
    case Type::kObject: {
      out += '{';
      std::size_t i = 0;
      for (const auto& [key, value] : object_) {
        if (i++ != 0) out += ',';
        indent_to(out, indent, depth + 1);
        dump_string(out, key);
        out += indent < 0 ? ":" : ": ";
        value.dump_to(out, indent, depth + 1);
      }
      if (!object_.empty()) indent_to(out, indent, depth);
      out += '}';
      return;
    }
  }
}

std::string Json::dump(int indent) const {
  std::string out;
  dump_to(out, indent, 0);
  return out;
}

Json load_json_file(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  if (!in) throw std::runtime_error("cannot open " + path);
  std::ostringstream buffer;
  buffer << in.rdbuf();
  return Json::parse(buffer.str());
}

void save_json_file(const std::string& path, const Json& value) {
  std::ofstream out(path, std::ios::binary);
  if (!out) throw std::runtime_error("cannot open " + path + " for writing");
  out << value.dump(2) << '\n';
  if (!out) throw std::runtime_error("write failed: " + path);
}

}  // namespace haste::util
