// Minimal command-line option parsing shared by benches and examples.
//
// Syntax: --key=value or --key value or bare --flag (boolean true).
// Every getter (and has()) records the key it looked up; a program calls
// `reject_unknown()` once it has read all its options, so a typo such as
// --scael=2 exits 2 naming the flag instead of running on the defaults.
#pragma once

#include <cstdint>
#include <map>
#include <optional>
#include <set>
#include <string>
#include <vector>

namespace nk {

class Options {
 public:
  Options() = default;
  Options(int argc, char** argv);

  /// True if --key was present at all.
  [[nodiscard]] bool has(const std::string& key) const;

  [[nodiscard]] std::string get(const std::string& key, const std::string& def) const;
  [[nodiscard]] int get_int(const std::string& key, int def) const;
  [[nodiscard]] std::int64_t get_int64(const std::string& key, std::int64_t def) const;
  [[nodiscard]] double get_double(const std::string& key, double def) const;
  [[nodiscard]] bool get_bool(const std::string& key, bool def) const;

  /// Comma-separated list of ints, e.g. --sizes=16,32,64.
  [[nodiscard]] std::vector<int> get_int_list(const std::string& key,
                                              const std::vector<int>& def) const;
  /// Comma-separated list of doubles.
  [[nodiscard]] std::vector<double> get_double_list(const std::string& key,
                                                    const std::vector<double>& def) const;
  /// Comma-separated list of strings.
  [[nodiscard]] std::vector<std::string> get_list(const std::string& key,
                                                  const std::vector<std::string>& def) const;

  /// Positional (non --key) arguments in order of appearance.
  [[nodiscard]] const std::vector<std::string>& positional() const { return positional_; }

  /// Register a documented key (for --help output).
  void describe(const std::string& key, const std::string& help);

  /// Render a help string from registered descriptions.
  [[nodiscard]] std::string help(const std::string& program) const;

  /// True if --help/-h given.
  [[nodiscard]] bool wants_help() const { return has("help") || has("h"); }

  /// If a flag was given that no getter or has() has looked up, print one
  /// line naming it and exit(2), as a malformed value does.  Call after
  /// every option is read and before any work starts.
  void reject_unknown() const;

 private:
  /// The entry for `key` (end() if absent), recording that it was read.
  [[nodiscard]] std::map<std::string, std::string>::const_iterator find(
      const std::string& key) const;

  std::map<std::string, std::string> kv_;
  mutable std::set<std::string> read_;
  std::vector<std::string> positional_;
  std::vector<std::pair<std::string, std::string>> descriptions_;
};

}  // namespace nk
