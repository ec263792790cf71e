// Shared pieces of the end-to-end benchmark program: the spec set, timing
// and statistics helpers, the span recorder, the metric sink, and the
// fp64 correctness check every returned solution goes through.
#pragma once

#include <algorithm>
#include <array>
#include <chrono>
#include <cstdint>
#include <functional>
#include <map>
#include <mutex>
#include <span>
#include <string>
#include <vector>

#include "core/problem.hpp"
#include "krylov/history.hpp"

namespace nkb {

// ---- the solver specs every workload runs ---------------------------------

struct SpecDef {
  const char* key;   ///< metric-name fragment, e.g. "f3r_fp16"
  const char* text;  ///< nk spec string
};

inline constexpr std::array<SpecDef, 7> kSpecs{{
    {"f3r_fp16", "f3r@fp16"},
    {"f3r_fp32", "f3r@fp32"},
    {"f3r_fp64", "f3r@fp64"},
    {"fgmres64_fp64", "fgmres64/bj@fp64"},
    {"krylov_fp64", "krylov/bj@fp64"},
    {"irgmres8_fp32", "ir-gmres8/bj@fp32"},
    {"auto", "auto"},
}};
inline constexpr int kNumSpecs = static_cast<int>(kSpecs.size());
inline constexpr int kAutoSpec = kNumSpecs - 1;
inline constexpr double kRtol = 1e-8;

// ---- time and statistics --------------------------------------------------

inline double now_s() {
  return std::chrono::duration<double>(std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

/// Linear-interpolated quantile q in [0, 1] of `v` (copied, not modified).
inline double quantile(std::vector<double> v, double q) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const double pos = q * static_cast<double>(v.size() - 1);
  const auto lo = static_cast<std::size_t>(pos);
  const std::size_t hi = std::min(lo + 1, v.size() - 1);
  return v[lo] + (pos - static_cast<double>(lo)) * (v[hi] - v[lo]);
}
inline double median(const std::vector<double>& v) { return quantile(v, 0.5); }

/// Seed mixer: a distinct, reproducible 64-bit stream id per (seed, a, b).
std::uint64_t mix_seed(std::uint64_t seed, std::uint64_t a, std::uint64_t b = 0);

/// Running FNV-1a digest of every generated input (RHS values, request
/// lists), printed so a fixed seed can be shown to reproduce its inputs.
struct InputDigest {
  std::uint64_t h = 0xcbf29ce484222325ULL;
  void add(const void* data, std::size_t bytes);
  void add(std::span<const double> v) { add(v.data(), v.size_bytes()); }
  void add_u64(std::uint64_t x) { add(&x, sizeof x); }
};

// ---- spans ----------------------------------------------------------------

/// In-memory span recorder (name, start, end, parent, request id).  Off in
/// untraced runs: begin() then returns -1 and records nothing.  Thread-safe,
/// so daemon client threads can record request spans concurrently.
class Tracer {
 public:
  struct Span {
    std::string name;
    double t0 = 0.0, t1 = 0.0;
    int parent = -1;
    std::uint64_t req = 0;
  };

  void enable(double origin) {
    on_ = true;
    origin_ = origin;
  }
  [[nodiscard]] bool on() const { return on_; }
  int begin(std::string name, int parent = -1, std::uint64_t req = 0);
  void end(int id);
  [[nodiscard]] std::vector<Span> spans() const;

 private:
  bool on_ = false;
  double origin_ = 0.0;
  mutable std::mutex mu_;
  std::vector<Span> spans_;
};

Tracer& tracer();

/// RAII span around one layer call.
class SpanScope {
 public:
  explicit SpanScope(std::string name, int parent = -1, std::uint64_t req = 0)
      : id_(tracer().begin(std::move(name), parent, req)) {}
  ~SpanScope() { tracer().end(id_); }
  SpanScope(const SpanScope&) = delete;
  SpanScope& operator=(const SpanScope&) = delete;
  [[nodiscard]] int id() const { return id_; }

 private:
  int id_;
};

// ---- metrics and outcome accounting ---------------------------------------

struct Metric {
  double value = 0.0;
  std::string unit;
};
using Metrics = std::map<std::string, Metric>;

/// Correctness tally over every returned solution.
struct Outcome {
  long attempted = 0;
  long failed = 0;     ///< not converged, or true fp64 relres > rtol
  long violated = 0;   ///< claimed converged but the recomputed check disagrees
  double worst_relres = 0.0;

  /// Recompute ‖b − A x‖/‖b‖ in fp64 for one returned column and count it.
  /// `status` and `claimed_relres` are what the solver reported for it.
  void check(const nk::CsrMatrix<double>& a, std::span<const double> b,
             std::span<const double> x, const std::string& status, double claimed_relres,
             const std::string& where);
};

// ---- per-spec solve record (shared by the solve workloads and the daemon) --

/// Time-to-solution samples and counters of one (matrix, spec) pair.
struct PairRecord {
  std::vector<double> times;       ///< per-solve seconds (latency samples)
  std::vector<double> solo_times;  ///< seconds of single local solves (krylov/core rates)
  nk::SolveResult last;            ///< counters of the last measured solve
  double ctor_s = 0.0;             ///< median Session construction time
  double unit_cost = 0.0;          ///< Section 4.1 modeled accesses per M-apply per row
};

/// Largest working set the workload touches, for the regime report.
struct WorkingSet {
  std::string matrix;
  double bytes[3] = {0, 0, 0};  ///< fp64, fp32, fp16
};

/// One workload's results, filled by the runners and rendered by main.
struct WorkloadResult {
  std::vector<std::string> matrices;
  std::vector<nk::index_t> rows;
  /// pairs[m][s]: matrix m, spec kSpecs[s].
  std::vector<std::array<PairRecord, kNumSpecs>> pairs;
  std::vector<double> setup_samples;  ///< one total set-up time per repetition
  std::vector<double> request_ms;     ///< every request's latency (ms)
  double measured_s = 0.0;            ///< wall time of the measured phase
  double prepare_s = 0.0;             ///< Σ prepare_standin over the matrices
  Outcome outcome;
  WorkingSet largest;                 ///< regime report: the largest working set
  Metrics layer;                      ///< per-layer metrics (traced runs)
  std::vector<std::string> notes;     ///< extra report lines
};

struct RunConfig {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  bool tiny = false;
  int threads = 4;
  std::string out_dir = ".";
};

// ---- workload runners (solve_workloads.cpp, daemon.cpp, layers.cpp) --------

WorkloadResult run_solve_workload(const RunConfig& cfg, InputDigest& digest);
WorkloadResult run_daemon_workload(const RunConfig& cfg, InputDigest& digest);

/// The traced run's service pass for the solve workloads: a short closed
/// loop against an in-process daemon, reported as service.* metrics.
void service_pass(const RunConfig& cfg, Metrics& layer, Outcome& outcome);

/// The traced run's kernel passes (sparse, precond, base) on the
/// workload's own matrices: each kernel is timed at 1 thread and at the
/// run's thread count, and the per-call times are summed over matrices.
class KernelPasses {
 public:
  explicit KernelPasses(int threads) : threads_(threads) {}
  void add(const nk::PreparedProblem& p);
  void write(Metrics& layer) const;

 private:
  struct Acc {
    double t1 = 0.0, tn = 0.0, bytes = 0.0;
  };
  void time(const std::string& name, double bytes, const std::function<void()>& f);

  int threads_;
  double precond_setup_s_ = 0.0;
  std::map<std::string, Acc> acc_;
};

/// krylov.*, core.* and tune.* metrics from the per-pair records.
void solve_layer_metrics(const WorkloadResult& r, Metrics& layer);

/// Computed working set of one problem per storage precision.
WorkingSet working_set(const nk::PreparedProblem& p);

/// Section 4.1 modeled accesses per M-application per row for `spec_text`.
double modeled_unit_cost(const nk::PreparedProblem& p, const std::string& spec_text);

/// Winner spec text the perf-DB holds for `p` (for "auto"), or "".
std::string tuned_spec(const nk::PreparedProblem& p);

}  // namespace nkb
