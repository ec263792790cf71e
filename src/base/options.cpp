#include "base/options.hpp"

#include <cctype>
#include <cstdlib>
#include <iostream>
#include <limits>
#include <sstream>
#include <stdexcept>

namespace nk {

namespace {

std::vector<std::string> split_csv(const std::string& s) {
  std::vector<std::string> out;
  std::string cur;
  for (char c : s) {
    if (c == ',') {
      out.push_back(cur);
      cur.clear();
    } else {
      cur.push_back(c);
    }
  }
  out.push_back(cur);
  return out;
}

// Numeric flag parsing: every bench/example funnels its CLI through these,
// so a malformed value must produce a one-line diagnostic naming the flag
// and exit(2) — never an uncaught std::invalid_argument / std::out_of_range
// terminate() (which looks like a crash and hides the offending flag).
[[noreturn]] void die_bad_value(const std::string& key, const std::string& value,
                                const char* why) {
  std::cerr << "error: " << why << " value '" << value << "' for --" << key << "\n";
  std::exit(2);
}

long long parse_int_checked(const std::string& key, const std::string& value,
                            long long lo, long long hi) {
  std::size_t pos = 0;
  long long v = 0;
  try {
    v = std::stoll(value, &pos);
  } catch (const std::invalid_argument&) {
    die_bad_value(key, value, "invalid integer");
  } catch (const std::out_of_range&) {
    die_bad_value(key, value, "out-of-range integer");
  }
  if (pos != value.size()) die_bad_value(key, value, "trailing garbage in integer");
  if (v < lo || v > hi) die_bad_value(key, value, "out-of-range integer");
  return v;
}

double parse_double_checked(const std::string& key, const std::string& value) {
  std::size_t pos = 0;
  double v = 0.0;
  try {
    v = std::stod(value, &pos);
  } catch (const std::invalid_argument&) {
    die_bad_value(key, value, "invalid number");
  } catch (const std::out_of_range&) {
    die_bad_value(key, value, "out-of-range number");
  }
  if (pos != value.size()) die_bad_value(key, value, "trailing garbage in number");
  return v;
}

}  // namespace

Options::Options(int argc, char** argv) {
  for (int i = 1; i < argc; ++i) {
    std::string arg = argv[i];
    if (arg.rfind("--", 0) == 0) {
      arg = arg.substr(2);
      auto eq = arg.find('=');
      if (eq != std::string::npos) {
        kv_[arg.substr(0, eq)] = arg.substr(eq + 1);
      } else if (i + 1 < argc && std::string(argv[i + 1]).rfind("--", 0) != 0) {
        kv_[arg] = argv[++i];
      } else {
        kv_[arg] = "true";
      }
    } else if (arg.rfind('-', 0) == 0 && arg.size() > 1 &&
               // unsigned-char cast: plain isdigit(char) is UB for negative
               // values, which any non-ASCII byte (UTF-8 filename) produces.
               !std::isdigit(static_cast<unsigned char>(arg[1]))) {
      kv_[arg.substr(1)] = "true";
    } else {
      positional_.push_back(arg);
    }
  }
}

std::map<std::string, std::string>::const_iterator Options::find(
    const std::string& key) const {
  read_.insert(key);
  return kv_.find(key);
}

bool Options::has(const std::string& key) const { return find(key) != kv_.end(); }

void Options::reject_unknown() const {
  for (const auto& kv : kv_)
    if (read_.count(kv.first) == 0) {
      std::cerr << "error: unknown flag --" << kv.first << "\n";
      std::exit(2);
    }
}

std::string Options::get(const std::string& key, const std::string& def) const {
  auto it = find(key);
  return it == kv_.end() ? def : it->second;
}

int Options::get_int(const std::string& key, int def) const {
  auto it = find(key);
  if (it == kv_.end()) return def;
  return static_cast<int>(parse_int_checked(key, it->second,
                                            std::numeric_limits<int>::min(),
                                            std::numeric_limits<int>::max()));
}

std::int64_t Options::get_int64(const std::string& key, std::int64_t def) const {
  auto it = find(key);
  if (it == kv_.end()) return def;
  return parse_int_checked(key, it->second, std::numeric_limits<std::int64_t>::min(),
                           std::numeric_limits<std::int64_t>::max());
}

double Options::get_double(const std::string& key, double def) const {
  auto it = find(key);
  if (it == kv_.end()) return def;
  return parse_double_checked(key, it->second);
}

bool Options::get_bool(const std::string& key, bool def) const {
  auto it = find(key);
  if (it == kv_.end()) return def;
  const std::string& v = it->second;
  return v == "true" || v == "1" || v == "yes" || v == "on";
}

std::vector<int> Options::get_int_list(const std::string& key, const std::vector<int>& def) const {
  auto it = find(key);
  if (it == kv_.end()) return def;
  std::vector<int> out;
  for (const auto& tok : split_csv(it->second))
    if (!tok.empty())
      out.push_back(static_cast<int>(parse_int_checked(key, tok,
                                                       std::numeric_limits<int>::min(),
                                                       std::numeric_limits<int>::max())));
  return out;
}

std::vector<double> Options::get_double_list(const std::string& key,
                                             const std::vector<double>& def) const {
  auto it = find(key);
  if (it == kv_.end()) return def;
  std::vector<double> out;
  for (const auto& tok : split_csv(it->second))
    if (!tok.empty()) out.push_back(parse_double_checked(key, tok));
  return out;
}

std::vector<std::string> Options::get_list(const std::string& key,
                                           const std::vector<std::string>& def) const {
  auto it = find(key);
  if (it == kv_.end()) return def;
  std::vector<std::string> out;
  for (auto& tok : split_csv(it->second))
    if (!tok.empty()) out.push_back(tok);
  return out;
}

void Options::describe(const std::string& key, const std::string& help) {
  descriptions_.emplace_back(key, help);
}

std::string Options::help(const std::string& program) const {
  std::ostringstream os;
  os << "usage: " << program << " [--key=value ...]\n";
  for (const auto& [k, h] : descriptions_) os << "  --" << k << "\t" << h << "\n";
  return os.str();
}

}  // namespace nk
