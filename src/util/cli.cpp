#include "util/cli.hpp"

#include <algorithm>
#include <cerrno>
#include <cmath>
#include <cstdlib>
#include <stdexcept>

namespace haste::util {

Flags Flags::parse(int argc, const char* const* argv) {
  Flags flags;
  for (int i = 1; i < argc; ++i) {
    const std::string token = argv[i];
    if (token.rfind("--", 0) != 0) {
      flags.positional_.push_back(token);
      continue;
    }
    const std::string body = token.substr(2);
    const std::size_t eq = body.find('=');
    if (eq != std::string::npos) {
      flags.values_[body.substr(0, eq)] = body.substr(eq + 1);
      continue;
    }
    // `--name value` form: consume the next token as the value unless it is
    // itself a flag, in which case `--name` is boolean.
    if (i + 1 < argc && std::string(argv[i + 1]).rfind("--", 0) != 0) {
      flags.values_[body] = argv[++i];
    } else {
      flags.values_[body] = "";
    }
  }
  return flags;
}

bool Flags::has(const std::string& name) const { return values_.count(name) != 0; }

std::string Flags::get(const std::string& name, const std::string& fallback) const {
  const auto it = values_.find(name);
  return it == values_.end() ? fallback : it->second;
}

std::int64_t Flags::get_int(const std::string& name, std::int64_t fallback) const {
  const auto it = values_.find(name);
  if (it == values_.end()) return fallback;
  char* end = nullptr;
  errno = 0;  // strtoll only ever sets errno, so stale values must be cleared
  const std::int64_t value = std::strtoll(it->second.c_str(), &end, 10);
  if (end == it->second.c_str() || *end != '\0') {
    throw std::invalid_argument("flag --" + name + " expects an integer, got '" +
                                it->second + "'");
  }
  if (errno == ERANGE) {
    throw std::out_of_range("flag --" + name + " value '" + it->second +
                            "' is out of the 64-bit integer range");
  }
  return value;
}

int Flags::get_int_in(const std::string& name, std::int64_t fallback, int min,
                      int max) const {
  const std::int64_t value = get_int(name, fallback);
  if (value < min || value > max) {
    throw std::out_of_range("flag --" + name + " value " + std::to_string(value) +
                            " is outside [" + std::to_string(min) + ", " +
                            std::to_string(max) + "]");
  }
  return static_cast<int>(value);
}

double Flags::get_double(const std::string& name, double fallback) const {
  const auto it = values_.find(name);
  if (it == values_.end()) return fallback;
  char* end = nullptr;
  errno = 0;
  const double value = std::strtod(it->second.c_str(), &end);
  if (end == it->second.c_str() || *end != '\0') {
    throw std::invalid_argument("flag --" + name + " expects a number, got '" +
                                it->second + "'");
  }
  // Overflow clamps to +-HUGE_VAL with ERANGE — reject it instead of letting
  // an absurd magnitude flow into a scheduler knob. Underflow (a subnormal
  // rounding toward zero) also reports ERANGE but is harmless; keep it.
  if (errno == ERANGE && std::abs(value) == HUGE_VAL) {
    throw std::out_of_range("flag --" + name + " value '" + it->second +
                            "' overflows a double");
  }
  return value;
}

bool Flags::get_bool(const std::string& name, bool fallback) const {
  const auto it = values_.find(name);
  if (it == values_.end()) return fallback;
  const std::string& v = it->second;
  if (v.empty() || v == "true" || v == "1" || v == "yes") return true;
  if (v == "false" || v == "0" || v == "no") return false;
  throw std::invalid_argument("flag --" + name + " expects a boolean, got '" + v + "'");
}

std::vector<std::string> Flags::names() const {
  std::vector<std::string> out;
  out.reserve(values_.size());
  for (const auto& [name, value] : values_) out.push_back(name);
  return out;
}

std::string Flags::unknown_flags(const std::vector<std::string>& declared) const {
  std::string unknown;
  int count = 0;
  for (const auto& [name, value] : values_) {
    if (std::find(declared.begin(), declared.end(), name) != declared.end()) continue;
    unknown += (count++ == 0 ? " --" : ", --") + name;
  }
  if (count == 0) return "";
  return (count == 1 ? "unknown flag" : "unknown flags") + unknown;
}

}  // namespace haste::util
