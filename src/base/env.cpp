#include "base/env.hpp"

#include <cerrno>
#include <cstdlib>
#include <iostream>
#include <mutex>
#include <set>
#include <sstream>
#include <string_view>

#include "base/backend.hpp"

#ifdef _OPENMP
#include <omp.h>
#endif

namespace nk {

namespace {

/// One warning per variable per process, however many times the knob is
/// read (call sites additionally cache the parsed value in local statics,
/// but the direct-parse test path calls these repeatedly).
void warn_once(const char* var, const std::string& msg) {
  static std::mutex mu;
  static std::set<std::string> warned;
  const std::lock_guard<std::mutex> lock(mu);
  if (warned.insert(var).second) std::cerr << "nkrylov: " << msg << "\n";
}

}  // namespace

long env_long(const char* var, long def, long min_value) {
  const char* s = std::getenv(var);
  if (s == nullptr) return def;
  char* end = nullptr;
  errno = 0;
  const long v = std::strtol(s, &end, 10);
  if (end == s || *end != '\0' || errno == ERANGE) {
    warn_once(var, std::string(var) + "='" + s + "' is not an integer; using default " +
                       std::to_string(def));
    return def;
  }
  if (v < min_value) {
    warn_once(var, std::string(var) + "=" + std::to_string(v) + " is below the minimum " +
                       std::to_string(min_value) + "; using default " + std::to_string(def));
    return def;
  }
  return v;
}

bool env_flag(const char* var, bool def) {
  const char* s = std::getenv(var);
  if (s == nullptr) return def;
  const std::string_view v(s);
  if (v == "0" || v == "off" || v == "false" || v == "no") return false;
  if (v == "1" || v == "on" || v == "true" || v == "yes") return true;
  warn_once(var, std::string(var) + "='" + s + "' is not a boolean (0|off|false|no / " +
                     "1|on|true|yes); using default " + (def ? "on" : "off"));
  return def;
}

std::string env_str(const char* var, const std::string& def) {
  const char* s = std::getenv(var);
  return s == nullptr ? def : std::string(s);
}

long tune_probes_env() { return env_long("NKRYLOV_TUNE_PROBES", 4, 0); }

std::string tune_db_env() { return env_str("NKRYLOV_TUNE_DB", ""); }

void require_backend_env_cli() {
  const char* s = std::getenv("NKRYLOV_BACKEND");
  if (s == nullptr || parse_backend(s).has_value()) return;
  std::cerr << "error: NKRYLOV_BACKEND='" << s
            << "' is not a known backend (known: " << backend_names() << ")\n";
  std::exit(2);
}

int num_threads() {
#ifdef _OPENMP
  int n = 1;
#pragma omp parallel
  {
#pragma omp single
    n = omp_get_num_threads();
  }
  return n;
#else
  return 1;
#endif
}

bool has_f16c() {
#if defined(__F16C__)
  return true;
#else
  return false;
#endif
}

std::string env_summary() {
  std::ostringstream os;
  os << "threads=" << num_threads();
#ifdef _OPENMP
  os << " openmp=" << _OPENMP;
#else
  os << " openmp=off";
#endif
  os << " f16c=" << (has_f16c() ? "yes" : "no");
  // Which implementation the fp16 BLAS-1/reduction kernels actually use.
  os << " fp16-kernels=" << (has_f16c() ? "f16c" : "scalar");
  // Requested-vs-active backend: the active (canonical) name first; the
  // requested spelling in parentheses whenever it differs — an alias
  // ("omp") or an invalid value that Session will refuse to build with.
  os << " backend=";
  const char* req = std::getenv("NKRYLOV_BACKEND");
  if (req == nullptr) {
    os << backend_name(Backend::kHost);
  } else {
    const auto be = parse_backend(req);
    if (!be.has_value()) os << "invalid(requested=" << req << ")";
    else if (std::string_view(req) != backend_name(*be))
      os << backend_name(*be) << "(requested=" << req << ")";
    else os << backend_name(*be);
  }
  // Autotuner knobs, through the same checked parsers the tuner itself
  // uses — the summary reports what WILL happen, not the raw env text
  // (a malformed NKRYLOV_TUNE_PROBES shows the default it fell back to).
  os << " tune-probes=" << tune_probes_env();
  const std::string db = tune_db_env();
  os << " tune-db=" << (db.empty() ? "none" : db);
#ifdef NDEBUG
  os << " build=release";
#else
  os << " build=debug";
#endif
  return os.str();
}

}  // namespace nk
