// Minimal self-contained JSON DOM (no external dependencies): enough for
// scenario/schedule serialization — parse, build, and dump with full
// round-trip fidelity for the types the library stores (numbers are doubles,
// as in JSON itself).
#pragma once

#include <cstddef>
#include <cstdint>
#include <span>
#include <stdexcept>
#include <string>
#include <string_view>
#include <utility>
#include <variant>
#include <vector>

namespace haste::util {

/// Error thrown on malformed JSON input or type mismatches.
class JsonError : public std::runtime_error {
 public:
  using std::runtime_error::runtime_error;
};

/// A JSON value: null, bool, number (double), string, array, or object.
/// A value holds only its own alternative (40 bytes). An object is one
/// vector of (key, value) members kept sorted by key (std::string order)
/// with unique keys, so dumps are deterministic whatever the insertion
/// order.
class Json {
 public:
  enum class Type { kNull, kBool, kNumber, kString, kArray, kObject };
  using Member = std::pair<std::string, Json>;

  /// Constructors for each type.
  Json() = default;
  Json(std::nullptr_t) {}
  Json(bool value) : value_(std::in_place_type<bool>, value) {}
  Json(double value) : value_(std::in_place_type<double>, value) {}
  Json(int value) : value_(std::in_place_type<double>, value) {}
  Json(std::int64_t value)
      : value_(std::in_place_type<double>, static_cast<double>(value)) {}
  Json(const char* value) : value_(std::in_place_type<std::string>, value) {}
  Json(std::string value) : value_(std::in_place_type<std::string>, std::move(value)) {}

  /// Factory helpers.
  static Json array();
  static Json object();
  /// An object of `members`, given in any order; a repeated key keeps its
  /// last value, as in parse(). Building a small object in one step costs
  /// one allocation instead of a set() per key.
  static Json object(std::vector<Member> members);

  /// Parses a complete JSON document; trailing garbage is an error. One
  /// lenient extension: the non-finite literals `NaN`, `Infinity`, and
  /// `-Infinity` parse as numbers (google-benchmark writes them into its
  /// JSON dumps, which bench_compare consumes). dump() stays strict and
  /// refuses to serialize non-finite numbers. A key repeated within one
  /// object keeps its last value. Each object's members are collected as
  /// parsed and sorted once when the object closes, so parsing stays
  /// O(k log k) in an object's key count whatever the key order.
  static Json parse(std::string_view text);

  Type type() const { return static_cast<Type>(value_.index()); }
  bool is_null() const { return type() == Type::kNull; }
  bool is_bool() const { return type() == Type::kBool; }
  bool is_number() const { return type() == Type::kNumber; }
  bool is_string() const { return type() == Type::kString; }
  bool is_array() const { return type() == Type::kArray; }
  bool is_object() const { return type() == Type::kObject; }

  /// Typed accessors; throw JsonError on mismatch.
  bool as_bool() const;
  double as_number() const;
  std::int64_t as_int() const;  ///< number checked to be integral
  const std::string& as_string() const;

  /// Array access. The reference push_back returns is invalidated by a
  /// later push_back into the same array.
  std::size_t size() const;  ///< array or object element count
  void reserve(std::size_t count);  ///< array or object: room for `count` elements
  const Json& at(std::size_t index) const;
  Json& push_back(Json value);  ///< appends; returns the stored element

  /// Object access. set() appends when `key` sorts after every present key
  /// and otherwise binary-searches; the reference it returns is invalidated
  /// by a later set() of a new key into the same object.
  bool contains(const std::string& key) const;
  const Json& at(const std::string& key) const;
  Json& set(const std::string& key, Json value);  ///< insert/overwrite
  std::span<const Member> items() const;          ///< members in key order

  /// Optional-with-default lookups for object fields.
  double number_or(const std::string& key, double fallback) const;
  std::string string_or(const std::string& key, const std::string& fallback) const;
  bool bool_or(const std::string& key, bool fallback) const;

  /// Serializes; indent < 0 -> compact, otherwise pretty with that many
  /// spaces per level.
  std::string dump(int indent = -1) const;

 private:
  using Array = std::vector<Json>;
  using Object = std::vector<Member>;  // sorted by key, keys unique
  class Parser;

  void dump_to(std::string& out, int indent, int depth) const;
  /// The member named `key`, or null when absent; throws when not an object.
  const Json* find(const std::string& key, const char* caller) const;

  // Alternatives in Type order, so index() is the type.
  std::variant<std::nullptr_t, bool, double, std::string, Array, Object> value_;
};

/// `json` as a 32-bit index (slot, task or charger id, or a count of them).
/// A number outside the int32 range throws JsonError naming `field` instead
/// of narrowing: a cast would silently wrap 2^32 + k to k.
std::int32_t index_from(const Json& json, const char* field);

/// Reads an entire file and parses it; throws JsonError (parse) or
/// std::runtime_error (I/O).
Json load_json_file(const std::string& path);

/// Writes `value.dump(2)` to `path`; throws std::runtime_error on I/O error.
void save_json_file(const std::string& path, const Json& value);

}  // namespace haste::util
