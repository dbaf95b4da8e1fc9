// Minimal command-line flag parser for the tools/ binaries.
//
// Supports:  --name value   --name=value   --flag   and positionals.
// Typed getters fall back to defaults when the flag is absent and throw
// std::invalid_argument on malformed values, so tools fail loudly. No flag
// takes an infinite or NaN number.
#pragma once

#include <cmath>
#include <cstdint>
#include <stdexcept>
#include <string>
#include <unordered_map>
#include <vector>

namespace scda::util {

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
    if (it == flags_.end()) return def;
    try {
      std::size_t pos = 0;
      const double v = std::stod(it->second, &pos);
      if (pos != it->second.size() || !std::isfinite(v))
        throw std::invalid_argument(it->second);
      return v;
    } catch (const std::exception&) {
      throw std::invalid_argument("--" + name +
                                  ": expected a finite number, got '" +
                                  it->second + "'");
    }
  }

  [[nodiscard]] std::int64_t get_int(const std::string& name,
                                     std::int64_t def) const {
    const auto it = flags_.find(name);
    if (it == flags_.end()) return def;
    try {
      std::size_t pos = 0;
      const std::int64_t v = std::stoll(it->second, &pos);
      if (pos != it->second.size()) throw std::invalid_argument(it->second);
      return v;
    } catch (const std::exception&) {
      throw std::invalid_argument("--" + name +
                                  ": expected an integer, got '" +
                                  it->second + "'");
    }
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

  /// Names seen on the command line (for unknown-flag checks).
  [[nodiscard]] std::vector<std::string> flag_names() const {
    std::vector<std::string> out;
    out.reserve(flags_.size());
    for (const auto& [k, v] : flags_) out.push_back(k);
    return out;
  }

 private:
  std::unordered_map<std::string, std::string> flags_;
  std::vector<std::string> positional_;
};

}  // namespace scda::util
