// Minimal command-line flag parser for the tools/ binaries.
//
// Supports:  --name value   --name=value   --flag   and positionals.
// Typed getters fall back to defaults when the flag is absent and throw
// std::invalid_argument on malformed values, so tools fail loudly. No flag
// takes an infinite or NaN number, and refuse_unknown() turns a mistyped
// flag into an error instead of a silently ignored setting.
#pragma once

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <limits>
#include <map>
#include <stdexcept>
#include <string>
#include <type_traits>
#include <vector>

namespace scda::util {

/// `text` as a finite number; throws std::invalid_argument naming `what`.
[[nodiscard]] inline double parse_finite(const std::string& what,
                                         const std::string& text) {
  try {
    std::size_t pos = 0;
    const double v = std::stod(text, &pos);
    if (pos == text.size() && std::isfinite(v)) return v;
  } catch (const std::exception&) {
  }
  throw std::invalid_argument(what + ": expected a finite number, got '" +
                              text + "'");
}

/// `text` as a whole number in [lo, hi]; throws std::invalid_argument
/// naming `what` (a flag or an environment variable).
[[nodiscard]] inline std::int64_t parse_int(const std::string& what,
                                            const std::string& text,
                                            std::int64_t lo, std::int64_t hi) {
  std::int64_t v = 0;
  try {
    std::size_t pos = 0;
    v = std::stoll(text, &pos);
    if (pos != text.size()) throw std::invalid_argument(text);
  } catch (const std::exception&) {
    throw std::invalid_argument(what + ": expected an integer, got '" + text +
                                "'");
  }
  if (v < lo || v > hi)
    throw std::invalid_argument(what + " must be in [" + std::to_string(lo) +
                                ", " + std::to_string(hi) + "], got " + text);
  return v;
}

class ArgParser {
 public:
  ArgParser(int argc, const char* const* argv) {
    for (int i = 1; i < argc; ++i) {
      std::string a = argv[i];
      if (a.rfind("--", 0) != 0) {
        positional_.push_back(std::move(a));
        continue;
      }
      a = a.substr(2);
      const auto eq = a.find('=');
      if (eq != std::string::npos) {
        flags_[a.substr(0, eq)] = a.substr(eq + 1);
      } else if (i + 1 < argc &&
                 std::string(argv[i + 1]).rfind("--", 0) != 0) {
        flags_[a] = argv[++i];
      } else {
        flags_[a] = "";  // bare boolean flag
      }
    }
  }

  [[nodiscard]] bool has(const std::string& name) const {
    return flags_.count(name) != 0;
  }

  [[nodiscard]] std::string get(const std::string& name,
                                const std::string& def = "") const {
    const auto it = flags_.find(name);
    return it == flags_.end() ? def : it->second;
  }

  [[nodiscard]] double get_double(const std::string& name, double def) const {
    const auto it = flags_.find(name);
    return it == flags_.end() ? def : parse_finite("--" + name, it->second);
  }

  [[nodiscard]] std::int64_t get_int(const std::string& name,
                                     std::int64_t def) const {
    return get_int_as<std::int64_t>(name, def);
  }

  /// An integer flag held in a `T` (a shape count, a pod arity), or `def`
  /// when absent; refused, naming the flag, below `lo` or past T's range.
  template <typename T>
  [[nodiscard]] T get_int_as(const std::string& name, T def,
                             T lo = std::numeric_limits<T>::min()) const {
    static_assert(std::is_signed_v<T> || sizeof(T) < sizeof(std::int64_t));
    const auto it = flags_.find(name);
    return it == flags_.end()
               ? def
               : static_cast<T>(parse_int("--" + name, it->second, lo,
                                          std::numeric_limits<T>::max()));
  }

  /// An integer flag that counts something (runs, samples, threads), or
  /// `def` when absent; refused unless it is in [1, max unsigned].
  [[nodiscard]] unsigned get_count(const std::string& name,
                                   unsigned def) const {
    return get_int_as<unsigned>(name, def, 1);
  }

  [[nodiscard]] bool get_bool(const std::string& name, bool def) const {
    const auto it = flags_.find(name);
    if (it == flags_.end()) return def;
    const std::string& v = it->second;
    if (v.empty() || v == "1" || v == "true" || v == "on") return true;
    if (v == "0" || v == "false" || v == "off") return false;
    throw std::invalid_argument("--" + name + ": expected a boolean, got '" +
                                v + "'");
  }

  [[nodiscard]] const std::vector<std::string>& positional() const noexcept {
    return positional_;
  }

  /// Throws std::invalid_argument naming a positional argument or a flag
  /// that `known` does not list (--help is always known).
  void refuse_unknown(const std::vector<std::string>& known) const {
    if (!positional_.empty())
      throw std::invalid_argument("unexpected argument '" +
                                  positional_.front() + "'");
    for (const auto& [k, v] : flags_)
      if (k != "help" && std::find(known.begin(), known.end(), k) ==
                             known.end())
        throw std::invalid_argument("unknown flag --" + k);
  }

 private:
  std::map<std::string, std::string> flags_;
  std::vector<std::string> positional_;
};

}  // namespace scda::util
