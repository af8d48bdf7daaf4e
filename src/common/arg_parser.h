#pragma once

#include <map>
#include <string>
#include <vector>

#include "common/status.h"

namespace depminer {

/// Minimal command-line flag parser for bench and example binaries.
///
/// Accepts `--name=value` and bare `--flag` (boolean). Anything not
/// starting with `--` is collected as a positional argument. The
/// space-separated `--name value` form is deliberately not supported: it
/// is ambiguous with positionals (`--verbose input.csv`).
class ArgParser {
 public:
  Status Parse(int argc, const char* const* argv);

  bool Has(const std::string& name) const;
  std::string GetString(const std::string& name,
                        const std::string& default_value) const;
  int64_t GetInt(const std::string& name, int64_t default_value) const;
  double GetDouble(const std::string& name, double default_value) const;
  bool GetBool(const std::string& name, bool default_value) const;

  /// Parses "10,20,30" style comma lists of integers.
  std::vector<int64_t> GetIntList(const std::string& name,
                                  std::vector<int64_t> default_value) const;

  const std::vector<std::string>& positional() const { return positional_; }
  /// Every `--name=value` flag; a bare `--name` maps to "".
  const std::map<std::string, std::string>& flags() const { return flags_; }

 private:
  std::map<std::string, std::string> flags_;
  std::vector<std::string> positional_;
};

}  // namespace depminer
