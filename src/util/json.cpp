#include "util/json.hpp"

#include <algorithm>
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

bool key_less(const Json::Member& a, const Json::Member& b) { return a.first < b.first; }

/// The comparator of every member lookup: a member before a key.
bool member_before(const Json::Member& member, const std::string& key) {
  return member.first < key;
}

/// Sorts parsed members by key, keeping the last of each run of equal keys.
/// stable_sort keeps equal keys in input order, so the last of a run is the
/// value parsed last.
void sort_members(std::vector<Json::Member>& members) {
  // Every document this library writes lists its keys in ascending order.
  if (std::adjacent_find(members.begin(), members.end(),
                         [](const Json::Member& a, const Json::Member& b) {
                           return !key_less(a, b);
                         }) == members.end()) {
    return;
  }
  std::stable_sort(members.begin(), members.end(), key_less);
  auto kept = members.begin();
  for (auto run = members.begin(); run != members.end();) {
    auto last = run;
    while (last + 1 != members.end() && (last + 1)->first == run->first) ++last;
    if (kept != last) *kept = std::move(*last);
    ++kept;
    run = last + 1;
  }
  members.erase(kept, members.end());
}

}  // namespace

/// Recursive-descent JSON parser over a string_view.
class Json::Parser {
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
    Object& members = std::get<Object>(object.value_);
    skip_whitespace();
    if (peek() == '}') {
      ++pos_;
      return object;
    }
    for (;;) {
      skip_whitespace();
      std::string key = parse_string();
      skip_whitespace();
      expect(':');
      members.emplace_back(std::move(key), parse_value(depth + 1));
      skip_whitespace();
      const char c = peek();
      if (c == ',') {
        ++pos_;
        continue;
      }
      if (c == '}') {
        ++pos_;
        sort_members(members);
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

namespace {

bool needs_escape(char c) {
  return c == '"' || c == '\\' || static_cast<unsigned char>(c) < 0x20;
}

void dump_string(std::string& out, const std::string& value) {
  out += '"';
  // Runs of characters that need no escape are appended whole.
  const char* run = value.data();
  const char* const end = run + value.size();
  while (run != end) {
    const char* stop = std::find_if(run, end, needs_escape);
    out.append(run, stop);
    if (stop == end) break;
    run = stop + 1;
    const char c = *stop;
    switch (c) {
      case '"': out += "\\\""; break;
      case '\\': out += "\\\\"; break;
      case '\b': out += "\\b"; break;
      case '\f': out += "\\f"; break;
      case '\n': out += "\\n"; break;
      case '\r': out += "\\r"; break;
      case '\t': out += "\\t"; break;
      default: {
        char buffer[8];
        std::snprintf(buffer, sizeof(buffer), "\\u%04x", c);
        out += buffer;
      }
    }
  }
  out += '"';
}

void dump_number(std::string& out, double value) {
  if (!std::isfinite(value)) throw JsonError("cannot serialize non-finite number");
  char buffer[64];
  // The shortest round-trip form of an integral double below 1e5 in
  // magnitude is its plain digits (from 1e5 on, "1e+05" is shorter), so the
  // cheaper integer conversion writes the same text for the indices, slots
  // and counts that fill most documents. -0.0 keeps the double path's "-0".
  const int integral = value > -1e5 && value < 1e5 ? static_cast<int>(value) : 0;
  const bool small_integer = value > -1e5 && value < 1e5 && integral == value &&
                             (integral != 0 || !std::signbit(value));
  const auto [ptr, ec] = small_integer
                             ? std::to_chars(buffer, buffer + sizeof(buffer), integral)
                             : std::to_chars(buffer, buffer + sizeof(buffer), value);
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
  j.value_.emplace<Array>();
  return j;
}

Json Json::object() {
  Json j;
  j.value_.emplace<Object>();
  return j;
}

Json Json::object(std::vector<Member> members) {
  sort_members(members);
  Json j;
  j.value_.emplace<Object>(std::move(members));
  return j;
}

Json Json::parse(std::string_view text) { return Parser(text).parse_document(); }

bool Json::as_bool() const {
  if (!is_bool()) throw JsonError("not a bool");
  return std::get<bool>(value_);
}

double Json::as_number() const {
  if (!is_number()) throw JsonError("not a number");
  return std::get<double>(value_);
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
  return std::get<std::string>(value_);
}

std::size_t Json::size() const {
  if (is_array()) return std::get<Array>(value_).size();
  if (is_object()) return std::get<Object>(value_).size();
  throw JsonError("size() on non-container");
}

void Json::reserve(std::size_t count) {
  if (is_array()) {
    std::get<Array>(value_).reserve(count);
  } else if (is_object()) {
    std::get<Object>(value_).reserve(count);
  } else {
    throw JsonError("reserve() on non-container");
  }
}

const Json& Json::at(std::size_t index) const {
  if (!is_array()) throw JsonError("indexing a non-array");
  const Array& array = std::get<Array>(value_);
  if (index >= array.size()) throw JsonError("array index out of range");
  return array[index];
}

Json& Json::push_back(Json value) {
  if (!is_array()) throw JsonError("push_back on non-array");
  return std::get<Array>(value_).emplace_back(std::move(value));
}

const Json* Json::find(const std::string& key, const char* caller) const {
  if (!is_object()) throw JsonError(std::string(caller) + " on non-object");
  const Object& members = std::get<Object>(value_);
  const auto it = std::lower_bound(members.begin(), members.end(), key, member_before);
  return it != members.end() && it->first == key ? &it->second : nullptr;
}

bool Json::contains(const std::string& key) const {
  return find(key, "contains()") != nullptr;
}

const Json& Json::at(const std::string& key) const {
  const Json* value = find(key, "key lookup");
  if (value == nullptr) throw JsonError("missing key: " + key);
  return *value;
}

Json& Json::set(const std::string& key, Json value) {
  if (!is_object()) throw JsonError("set() on non-object");
  Object& members = std::get<Object>(value_);
  if (members.empty() || members.back().first < key) {
    return members.emplace_back(key, std::move(value)).second;
  }
  const auto it = std::lower_bound(members.begin(), members.end(), key, member_before);
  if (it->first == key) return it->second = std::move(value);
  return members.emplace(it, key, std::move(value))->second;
}

std::span<const Json::Member> Json::items() const {
  if (!is_object()) throw JsonError("items() on non-object");
  return std::get<Object>(value_);
}

double Json::number_or(const std::string& key, double fallback) const {
  const Json* value = find(key, "contains()");
  return value != nullptr ? value->as_number() : fallback;
}

std::string Json::string_or(const std::string& key, const std::string& fallback) const {
  const Json* value = find(key, "contains()");
  return value != nullptr ? value->as_string() : fallback;
}

bool Json::bool_or(const std::string& key, bool fallback) const {
  const Json* value = find(key, "contains()");
  return value != nullptr ? value->as_bool() : fallback;
}

void Json::dump_to(std::string& out, int indent, int depth) const {
  switch (type()) {
    case Type::kNull:
      out += "null";
      return;
    case Type::kBool:
      out += std::get<bool>(value_) ? "true" : "false";
      return;
    case Type::kNumber:
      dump_number(out, std::get<double>(value_));
      return;
    case Type::kString:
      dump_string(out, std::get<std::string>(value_));
      return;
    case Type::kArray: {
      const Array& array = std::get<Array>(value_);
      out += '[';
      for (std::size_t i = 0; i < array.size(); ++i) {
        if (i != 0) out += ',';
        indent_to(out, indent, depth + 1);
        array[i].dump_to(out, indent, depth + 1);
      }
      if (!array.empty()) indent_to(out, indent, depth);
      out += ']';
      return;
    }
    case Type::kObject: {
      const Object& members = std::get<Object>(value_);
      out += '{';
      for (std::size_t i = 0; i < members.size(); ++i) {
        if (i != 0) out += ',';
        indent_to(out, indent, depth + 1);
        dump_string(out, members[i].first);
        out += indent < 0 ? ":" : ": ";
        members[i].second.dump_to(out, indent, depth + 1);
      }
      if (!members.empty()) indent_to(out, indent, depth);
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

std::int32_t index_from(const Json& json, const char* field) {
  const std::int64_t value = json.as_int();
  if (value < std::numeric_limits<std::int32_t>::min() ||
      value > std::numeric_limits<std::int32_t>::max()) {
    throw JsonError(std::string(field) + " " + std::to_string(value) +
                    " is outside the index range");
  }
  return static_cast<std::int32_t>(value);
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
