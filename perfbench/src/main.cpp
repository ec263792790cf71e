// nkbench — end-to-end benchmark of the nkrylov solver stack.
//
//   nkbench --workload fig1_memory_bound|catalog_cache_resident|daemon_closed_loop
//           --seed N --seconds S --trace 0|1 [--tiny] [--out DIR]
//
// Untraced runs (--trace 0) print the end-to-end metrics; traced runs
// (--trace 1) record spans around every layer call, run the kernel and
// service passes, and print the per-layer metrics.  Either way the last
// stdout line is one JSON object {correct, attempted, failed, metrics}, and
// the full report (metrics, regime, paper-claim table, spans) is written
// to DIR.  perfbench/run.py builds this program and is the usual entry.
#include <sys/resource.h>
#include <unistd.h>

#include <cmath>
#include <cstdio>
#include <fstream>
#include <iostream>
#include <memory>
#include <string>

#include "bench.hpp"

#ifdef _OPENMP
#include <omp.h>
#endif

namespace nkb {
namespace {

[[noreturn]] void usage(const std::string& why) {
  std::cerr << "nkbench: " << why
            << "\nusage: nkbench --workload NAME --seed N --seconds S --trace 0|1"
               " [--tiny] [--out DIR]\n";
  std::exit(2);
}

RunConfig parse_args(int argc, char** argv) {
  RunConfig cfg;
  bool have_workload = false;
  for (int i = 1; i < argc; ++i) {
    const std::string a = argv[i];
    const auto value = [&]() -> std::string {
      if (i + 1 >= argc) usage("missing value for " + a);
      return argv[++i];
    };
    try {
      if (a == "--workload") {
        cfg.workload = value();
        have_workload = true;
      } else if (a == "--seed") {
        cfg.seed = std::stoull(value());
      } else if (a == "--seconds") {
        cfg.seconds = std::stod(value());
      } else if (a == "--trace") {
        const std::string v = value();
        if (v != "0" && v != "1") usage("--trace takes 0 or 1");
        cfg.trace = v == "1";
      } else if (a == "--tiny") {
        cfg.tiny = true;
      } else if (a == "--out") {
        cfg.out_dir = value();
      } else {
        usage("unknown argument " + a);
      }
    } catch (const std::logic_error&) {
      usage("bad value for " + a);
    }
  }
  if (!have_workload) usage("--workload is required");
  if (cfg.workload != "fig1_memory_bound" && cfg.workload != "catalog_cache_resident" &&
      cfg.workload != "daemon_closed_loop")
    usage("unknown workload " + cfg.workload);
  if (!(cfg.seconds > 0)) usage("--seconds must be positive");
  return cfg;
}

int thread_count() {
#ifdef _OPENMP
  return std::max(1, std::min(4, omp_get_num_procs()));
#else
  return 1;
#endif
}

double peak_rss_mb() {
  rusage u{};
  getrusage(RUSAGE_SELF, &u);
  return static_cast<double>(u.ru_maxrss) / 1024.0;
}

/// Last-level cache size in bytes (glibc reads it from CPUID).
double llc_bytes() {
  for (int name : {_SC_LEVEL4_CACHE_SIZE, _SC_LEVEL3_CACHE_SIZE, _SC_LEVEL2_CACHE_SIZE}) {
    const long v = sysconf(name);
    if (v > 0) return static_cast<double>(v);
  }
  return 0.0;
}

/// STREAM triad a = b + s·c in GB/s (3 arrays of n doubles counted, no
/// write-allocate), median of 7 timed passes after a first-touch pass.
double stream_triad_gbps(std::size_t n) {
  std::unique_ptr<double[]> a(new double[n]), b(new double[n]), c(new double[n]);
  const auto sn = static_cast<std::ptrdiff_t>(n);
#pragma omp parallel for schedule(static)
  for (std::ptrdiff_t i = 0; i < sn; ++i) {
    a[i] = 0.0;
    b[i] = 1.0;
    c[i] = 2.0;
  }
  std::vector<double> gbps;
  for (int rep = 0; rep < 8; ++rep) {
    const double t0 = now_s();
#pragma omp parallel for schedule(static)
    for (std::ptrdiff_t i = 0; i < sn; ++i) a[i] = b[i] + 3.0 * c[i];
    const double dt = now_s() - t0;
    if (rep > 0) gbps.push_back(24.0 * static_cast<double>(n) / dt * 1e-9);
  }
  volatile double sink = a[n / 2];
  (void)sink;
  return median(gbps);
}

/// Seconds to record one span (begin + end) on a private tracer.
double span_cost_s() {
  Tracer t;
  t.enable(now_s());
  constexpr int kSpans = 20000;
  const double t0 = now_s();
  for (int i = 0; i < kSpans; ++i) t.end(t.begin("probe", -1, static_cast<std::uint64_t>(i)));
  return (now_s() - t0) / kSpans;
}

std::string fmt(double v) {
  char buf[40];
  std::snprintf(buf, sizeof buf, "%.17g", v);
  return buf;
}

/// Four significant digits, for the human-readable report.
std::string fmt4(double v) {
  char buf[32];
  std::snprintf(buf, sizeof buf, "%.4g", v);
  return buf;
}

std::string json_str(const std::string& s) {
  std::string out = "\"";
  for (char ch : s) {
    if (ch == '"' || ch == '\\') out += '\\';
    out += ch;
  }
  return out + "\"";
}

/// Non-finite values (a benchmark defect, reported by run()) print as null.
std::string metrics_json(const Metrics& ms) {
  std::string out = "{";
  for (const auto& [name, m] : ms) {
    if (out.size() > 1) out += ", ";
    out += json_str(name) + ": {\"value\": " + (std::isfinite(m.value) ? fmt(m.value) : "null") +
           ", \"unit\": " + json_str(m.unit) + "}";
  }
  return out + "}";
}

Metrics end_to_end_metrics(const WorkloadResult& r, double rss_mb) {
  Metrics e;
  for (int s = 0; s < kNumSpecs; ++s) {
    double tts = 0.0;
    for (const auto& pairs : r.pairs) tts += median(pairs[s].times);
    e[std::string("tts_") + kSpecs[s].key + "_s"] = {tts, "s"};
  }
  e["setup_s"] = {median(r.setup_samples), "s"};
  e["peak_rss_mb"] = {rss_mb, "MB"};
  e["req_p50_ms"] = {quantile(r.request_ms, 0.50), "ms"};
  e["req_p95_ms"] = {quantile(r.request_ms, 0.95), "ms"};
  e["req_per_s"] = {static_cast<double>(r.request_ms.size()) / r.measured_s, "1/s"};
  return e;
}

/// Human-readable report: time-to-solution tails, the paper-claim table,
/// and the regime the numbers come from.  Also returned as JSON fragments.
struct Report {
  std::string claims_json, regime_json;
};

Report print_report(const RunConfig& cfg, const WorkloadResult& r, const Metrics& e2e,
                    double stream_gbps, double llc) {
  std::cout << "== nkbench " << cfg.workload << " seed=" << cfg.seed << " seconds=" << cfg.seconds
            << " trace=" << cfg.trace << " threads=" << cfg.threads << (cfg.tiny ? " tiny" : "")
            << "\n";
  std::cout << "time to solution (per matrix: median / max over n solves):\n";
  for (int s = 0; s < kNumSpecs; ++s) {
    std::cout << "  " << kSpecs[s].text << ":";
    for (std::size_t m = 0; m < r.pairs.size(); ++m) {
      const auto& t = r.pairs[m][s].times;
      std::cout << "  " << r.matrices[m] << " " << fmt4(median(t)) << "/"
                << fmt4(quantile(t, 1.0)) << " s n=" << t.size();
    }
    std::cout << "\n";
  }
  std::cout << "requests: n=" << r.request_ms.size() << " p50 "
            << e2e.at("req_p50_ms").value << " ms, p95 " << e2e.at("req_p95_ms").value
            << " ms (" << (r.request_ms.size() >= 200 ? "10+" : "fewer than 10")
            << " samples beyond p95)\n";

  // Paper-claim table: information only, never gated.
  const auto tts = [&](const char* key) { return e2e.at(std::string("tts_") + key + "_s").value; };
  const double f16 = tts("f3r_fp16");
  struct Claim {
    const char* vs;
    const char* key;
    const char* paper;
  };
  const Claim claims[] = {{"fp64-F3R", "f3r_fp64", "up to 1.65x"},
                          {"fp32-F3R", "f3r_fp32", "up to 2.42x"},
                          {"FGMRES(64)", "fgmres64_fp64", ">= 1x"},
                          {"CG/BiCGStab", "krylov_fp64", ">= 1x"}};
  std::string cj = "{";
  std::cout << "paper-claim table (fp16-F3R speedup = baseline tts / fp16-F3R tts; info only):\n";
  for (const Claim& c : claims) {
    const double sp = tts(c.key) / f16;
    std::cout << "  over " << c.vs << ": " << fmt4(sp) << "x   (paper: " << c.paper
              << ")\n";
    if (cj.size() > 1) cj += ", ";
    cj += json_str(std::string("fp16_f3r_over_") + c.key) + ": " + fmt(sp);
  }
  cj += "}";

  // Regime report.
  const char* precs[3] = {"fp64", "fp32", "fp16"};
  std::string rj = "{\"stream_triad_gbps\": " + fmt(stream_gbps) + ", \"llc_bytes\": " + fmt(llc) +
                   ", \"largest_matrix\": " + json_str(r.largest.matrix) + ", \"working_set\": {";
  std::cout << "regime: STREAM triad " << fmt4(stream_gbps) << " GB/s, LLC "
            << llc / 1048576.0 << " MiB; computed working set of " << r.largest.matrix
            << " (matrix + ILU factors + 4 vectors):\n";
  for (int i = 0; i < 3; ++i) {
    const double ratio = r.largest.bytes[i] / llc;
    std::cout << "  " << precs[i] << ": " << fmt4(r.largest.bytes[i] / 1e6) << " MB = "
              << fmt4(ratio) << "x LLC -> "
              << (ratio > 1.0 ? "memory-bound" : "cache-resident") << "\n";
    if (i > 0) rj += ", ";
    rj += json_str(precs[i]) + ": {\"bytes\": " + fmt(r.largest.bytes[i]) +
          ", \"over_llc\": " + fmt(ratio) + "}";
  }
  rj += "}}";
  for (const auto& n : r.notes) std::cout << n << "\n";
  std::cout << "correctness: " << r.outcome.attempted << " solutions checked in fp64, "
            << r.outcome.failed << " failed (fail_frac "
            << static_cast<double>(r.outcome.failed) / static_cast<double>(r.outcome.attempted)
            << "), worst converged relres " << r.outcome.worst_relres << "\n";
  return {cj, rj};
}

/// Self time per span name (duration minus the time its child spans
/// cover), printed for the traced run.
void print_span_summary(const std::vector<Tracer::Span>& spans) {
  std::vector<double> child(spans.size(), 0.0);
  for (const auto& sp : spans)
    if (sp.parent >= 0) child[static_cast<std::size_t>(sp.parent)] += sp.t1 - sp.t0;
  struct Agg {
    int n = 0;
    double total = 0.0, self = 0.0;
  };
  std::map<std::string, Agg> agg;
  for (std::size_t i = 0; i < spans.size(); ++i) {
    const std::string name = spans[i].name.substr(0, spans[i].name.find(':'));
    Agg& a = agg[name];
    ++a.n;
    a.total += spans[i].t1 - spans[i].t0;
    a.self += spans[i].t1 - spans[i].t0 - child[i];
  }
  std::cout << "spans (" << spans.size() << "): name count total_s self_s\n";
  for (const auto& [name, a] : agg)
    std::cout << "  " << name << " " << a.n << " " << fmt4(a.total) << " "
              << fmt4(a.self) << "\n";
}

void write_spans(const std::string& path, const std::vector<Tracer::Span>& spans) {
  std::ofstream os(path);
  os << "[\n";
  for (std::size_t i = 0; i < spans.size(); ++i)
    os << "  {\"id\": " << i << ", \"name\": " << json_str(spans[i].name)
       << ", \"start_s\": " << fmt(spans[i].t0) << ", \"end_s\": " << fmt(spans[i].t1)
       << ", \"parent\": " << spans[i].parent << ", \"request\": " << spans[i].req << "}"
       << (i + 1 < spans.size() ? ",\n" : "\n");
  os << "]\n";
}

int run(int argc, char** argv) {
  RunConfig cfg = parse_args(argc, argv);
  cfg.threads = thread_count();
#ifdef _OPENMP
  omp_set_num_threads(cfg.threads);
#endif
  const double t_start = now_s();
  if (cfg.trace) tracer().enable(t_start);

  InputDigest digest;
  WorkloadResult r = cfg.workload == "daemon_closed_loop" ? run_daemon_workload(cfg, digest)
                                                          : run_solve_workload(cfg, digest);
  const double rss = peak_rss_mb();  // before the STREAM arrays below
  const double wall = now_s() - t_start;

  const double llc = llc_bytes();
  const double stream_bytes = cfg.tiny ? 16e6 : std::max(4.0 * llc, 64e6);
  const double stream_gbps = stream_triad_gbps(static_cast<std::size_t>(stream_bytes / 8));

  const Metrics e2e = end_to_end_metrics(r, rss);
  const Report rep = print_report(cfg, r, e2e, stream_gbps, llc);
  std::cout << "inputs digest: " << std::hex << digest.h << std::dec << "\n";

  Metrics out = e2e;
  const std::string stem =
      cfg.out_dir + "/" + cfg.workload + "-seed" + std::to_string(cfg.seed) + "-trace" +
      std::to_string(cfg.trace ? 1 : 0);
  if (cfg.trace) {
    out = r.layer;
    solve_layer_metrics(r, out);
    for (const auto& [name, m] : r.layer)
      if (name.starts_with("sparse.") && name.ends_with(".gbps"))
        out[name.substr(0, name.size() - 5) + ".stream_frac"] = {m.value / stream_gbps, "ratio"};
    out["sparse.stream_triad.gbps"] = {stream_gbps, "GB/s"};
    const auto spans = tracer().spans();
    const double span_s = span_cost_s();
    out["trace.spans"] = {static_cast<double>(spans.size()), "count"};
    out["trace.span_ns"] = {span_s * 1e9, "ns"};
    out["trace.overhead_frac"] = {static_cast<double>(spans.size()) * span_s / wall, "ratio"};
    print_span_summary(spans);
    write_spans(stem + "-spans.json", spans);
    std::cout << "tracing overhead (span recording): " << out["trace.overhead_frac"].value * 100
              << "% of " << wall << " s\n";
  }

  bool correct = r.outcome.violated == 0;
  for (const auto& [name, m] : out)
    if (!std::isfinite(m.value)) {
      std::cerr << "nkbench: metric " << name << " is not finite\n";
      correct = false;
    }

  {
    std::ofstream os(stem + ".json");
    os << "{\"workload\": " << json_str(cfg.workload) << ", \"seed\": " << cfg.seed
       << ", \"seconds\": " << fmt(cfg.seconds) << ", \"trace\": " << (cfg.trace ? 1 : 0)
       << ", \"tiny\": " << (cfg.tiny ? "true" : "false") << ", \"threads\": " << cfg.threads
       << ",\n \"correct\": " << (correct ? "true" : "false")
       << ", \"attempted\": " << r.outcome.attempted << ", \"failed\": " << r.outcome.failed
       << ",\n \"end_to_end\": " << metrics_json(e2e)
       << ",\n \"metrics\": " << metrics_json(out) << ",\n \"regime\": " << rep.regime_json
       << ",\n \"paper_claims\": " << rep.claims_json << "}\n";
  }

  std::cout << "{\"correct\": " << (correct ? "true" : "false")
            << ", \"attempted\": " << r.outcome.attempted << ", \"failed\": " << r.outcome.failed
            << ", \"metrics\": " << metrics_json(out) << "}" << std::endl;
  return correct ? 0 : 1;
}

}  // namespace
}  // namespace nkb

int main(int argc, char** argv) {
  try {
    return nkb::run(argc, argv);
  } catch (const std::exception& e) {
    std::cerr << "nkbench: error: " << e.what() << "\n";
    return 1;
  }
}
