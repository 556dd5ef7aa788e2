// Tiny command-line flag parser shared by benches and examples.
//
// Supported syntax: `--name=value`, `--name value`, and boolean `--name`.
// Unknown flags are collected and reported so every binary can print a
// helpful error instead of silently ignoring typos.
#pragma once

#include <cstdint>
#include <limits>
#include <map>
#include <optional>
#include <string>
#include <vector>

namespace haste::util {

/// Parsed command-line flags with typed accessors.
class Flags {
 public:
  /// Parses argv (argv[0] is skipped). Positional arguments (tokens not
  /// starting with "--") are collected separately.
  static Flags parse(int argc, const char* const* argv);

  /// True if the flag was present (with or without a value).
  bool has(const std::string& name) const;

  /// String value, or `fallback` if absent.
  std::string get(const std::string& name, const std::string& fallback = "") const;

  /// Integer value, or `fallback` if absent. Throws std::invalid_argument on
  /// a malformed number and std::out_of_range when the value does not fit in
  /// 64 bits (instead of silently clamping to INT64_MIN/MAX).
  std::int64_t get_int(const std::string& name, std::int64_t fallback) const;

  /// get_int narrowed to int: the value (`fallback` when the flag is absent)
  /// must lie in [min, max], otherwise std::out_of_range names the flag — a
  /// 64-bit value never wraps or clamps into a different int.
  int get_int_in(const std::string& name, std::int64_t fallback,
                 int min = std::numeric_limits<int>::min(),
                 int max = std::numeric_limits<int>::max()) const;

  /// Floating-point value, or `fallback` if absent. Throws
  /// std::invalid_argument on a malformed number and std::out_of_range when
  /// the magnitude overflows a double (instead of clamping to +-HUGE_VAL).
  double get_double(const std::string& name, double fallback) const;

  /// Boolean: `--flag`, `--flag=true/1/yes` are true; `--flag=false/0/no`
  /// false; absent yields `fallback`.
  bool get_bool(const std::string& name, bool fallback = false) const;

  /// Positional (non-flag) arguments in order of appearance.
  const std::vector<std::string>& positional() const { return positional_; }

  /// All flag names seen, for --help style listings.
  std::vector<std::string> names() const;

 private:
  std::map<std::string, std::string> values_;
  std::vector<std::string> positional_;
};

}  // namespace haste::util
